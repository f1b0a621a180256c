//! The `cfir` binary's shared error contract, checked on every
//! subcommand: bad arguments exit 2 with the usage text and never
//! panic, and the file writers (`--emit-json [path.json]`, `run
//! --pipeview PATH`) create missing directories but exit 1, naming the
//! path, when the file cannot be written.

use std::path::PathBuf;
use std::process::{Command, Output};

fn cfir(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cfir"))
        .args(args)
        .env_remove("CFIR_TRACE")
        .output()
        .expect("spawn cfir")
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cfir-cli-test-{}-{name}", std::process::id()))
}

fn assert_exit(out: &Output, code: i32, what: &str) -> String {
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(
        out.status.code(),
        Some(code),
        "{what}: want exit {code}\nstderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{what}: panicked\n{stderr}");
    stderr
}

#[test]
fn bad_arguments_exit_2_with_usage_on_every_subcommand() {
    let cases: &[(&str, &[&str])] = &[
        ("run", &["--bogus"]),
        ("run", &["p.asm", "--regs", "x"]),
        ("sample", &["--bogus"]),
        ("sample", &["bzip2", "--insts", "abc"]),
        ("report", &["--bogus"]),
        (
            "report",
            &["diff", "a.json", "b.json", "--tolerance", "abc"],
        ),
        ("analyze", &["--bogus"]),
        ("analyze", &["--tolerance", "abc"]),
        ("stress", &["--bogus"]),
        ("stress", &["abc"]),
        ("suite", &["--bogus"]),
        ("suite", &["--jobs", "x"]),
        ("suite", &["sweep", "--regs", "x"]),
    ];
    for (sub, args) in cases {
        let mut argv = vec![*sub];
        argv.extend_from_slice(args);
        let what = argv.join(" ");
        let stderr = assert_exit(&cfir(&argv), 2, &what);
        assert!(
            stderr.contains(&format!("usage: cfir {sub}")),
            "{what}: want the usage text\nstderr: {stderr}"
        );
    }

    let stderr = assert_exit(&cfir(&["frobnicate"]), 2, "unknown subcommand");
    assert!(stderr.contains("usage: cfir <command>"), "{stderr}");
    assert_exit(&cfir(&[]), 2, "no subcommand");

    // An unknown kernel is a bad argument in every subcommand that
    // loads programs.
    for sub in ["run", "sample", "analyze"] {
        let stderr = assert_exit(&cfir(&[sub, "nosuchkernel"]), 2, sub);
        assert!(stderr.contains("nosuchkernel"), "{sub}: {stderr}");
    }
}

/// `cfir <sub> ... --emit-json <path>` for each JSON-emitting
/// subcommand, or `cfir run ... --pipeview <path>` for `run
/// --pipeview`, with cheap arguments (`sample` needs a kernel long
/// enough to hold a few windows).
fn write_to(sub: &str, asm: &str, path: &str) -> Output {
    let args: Vec<&str> = match sub {
        "run" => vec!["run", asm, "--mode", "ci", "--emit-json", path],
        "run --pipeview" => vec!["run", asm, "--mode", "ci", "--pipeview", path],
        "sample" => vec![
            "sample",
            "bzip2",
            "--insts",
            "6000",
            "--period",
            "2000",
            "--warmup",
            "300",
            "--window",
            "300",
            "--emit-json",
            path,
        ],
        _ => vec!["analyze", asm, "--emit-json", path],
    };
    cfir(&args)
}

#[test]
fn emit_json_creates_directories_and_fails_cleanly() {
    let asm = tmp("prog.asm");
    std::fs::write(
        &asm,
        "li r1, 0\nli r2, 400\ntop:\naddi r1, r1, 1\nblt r1, r2, top\nhalt\n",
    )
    .unwrap();
    let asm = asm.to_str().unwrap();
    let blocker = tmp("blocker");
    std::fs::write(&blocker, "a regular file").unwrap();

    for sub in ["run", "run --pipeview", "sample", "analyze"] {
        let dir = tmp(&format!("fresh-{}", sub.replace(' ', "")));
        let fresh = dir.join("a/b/out.json");
        let out = write_to(sub, asm, fresh.to_str().unwrap());
        assert_exit(&out, 0, &format!("{sub} into a fresh directory"));
        let doc = std::fs::read_to_string(&fresh).expect("document written");
        if sub == "run --pipeview" {
            assert!(doc.starts_with("Kanata"), "{sub}: a Konata document");
        } else {
            assert!(
                cfir::obs::json::parse(&doc).is_ok(),
                "{sub}: written document parses"
            );
        }

        let bad = blocker.join("out.json");
        let out = write_to(sub, asm, bad.to_str().unwrap());
        let stderr = assert_exit(&out, 1, &format!("{sub} under a regular file"));
        assert!(
            stderr.contains(bad.to_str().unwrap()),
            "{sub}: stderr must name the path\nstderr: {stderr}"
        );
        let _ = std::fs::remove_dir_all(dir);
    }
    let _ = std::fs::remove_file(asm);
    let _ = std::fs::remove_file(blocker);
}
