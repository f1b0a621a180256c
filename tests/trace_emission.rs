//! End-to-end tracing acceptance: `CFIR_TRACE` drives `cfir run` to
//! produce Chrome-trace and JSONL files, and tracing must
//! not perturb the simulation (identical `--emit-json` snapshots with
//! and without a tracer attached).
//!
//! Each configuration runs in its own child process because the trace
//! environment is parsed once per process.

use cfir::obs::json;
use std::path::PathBuf;
use std::process::Command;

const PROG: &str = "\
    li   r1, 0\n\
    li   r6, 3200\n\
loop:\n\
    ld   r8, 1000(r1)\n\
    beq  r8, r0, else_\n\
    addi r2, r2, 1\n\
    jmp  ip\n\
else_:\n\
    addi r3, r3, 1\n\
ip:\n\
    add  r4, r4, r8\n\
    addi r1, r1, 8\n\
    blt  r1, r6, loop\n\
    halt\n";

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cfir-trace-test-{}-{name}", std::process::id()))
}

/// Run `cfir run <asm> --mode ci --emit-json` with a scrubbed trace
/// environment plus `trace_env`, returning stdout.
fn run(asm: &PathBuf, trace_env: Option<&str>) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_cfir"));
    cmd.arg("run")
        .arg(asm)
        .args(["--mode", "ci", "--emit-json"]);
    cmd.env_remove("CFIR_TRACE")
        .env_remove("CFIR_DEBUG")
        .env_remove("CFIR_CSTREAM");
    if let Some(spec) = trace_env {
        cmd.env("CFIR_TRACE", spec);
    }
    let out = cmd.output().expect("cfir run spawns");
    assert!(
        out.status.success(),
        "cfir-run failed (trace={trace_env:?}): {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn tracing_emits_files_without_perturbing_the_run() {
    let asm = tmp("prog.asm");
    std::fs::write(&asm, PROG).unwrap();
    let chrome = tmp("trace.json");
    let jsonl = tmp("trace.jsonl");

    // Baseline: no tracing.
    let base = run(&asm, None);
    let v = json::parse(base.trim()).expect("baseline snapshot parses");
    assert!(v.get("ipc").and_then(|x| x.as_f64()).unwrap() > 0.0);
    assert!(v.get("cycles").and_then(|x| x.as_u64()).unwrap() > 0);

    // Chrome-trace run: identical snapshot, plus a Perfetto-loadable
    // trace file.
    let spec = format!("sub=vec+commit+flush sink=chrome:{}", chrome.display());
    let traced = run(&asm, Some(&spec));
    assert_eq!(
        base, traced,
        "a chrome tracer must not change any statistic"
    );
    let doc = std::fs::read_to_string(&chrome).expect("chrome trace written");
    let t = json::parse(&doc).expect("chrome trace is valid JSON");
    let events = t
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("traceEvents array");
    let real: Vec<_> = events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("i"))
        .collect();
    assert!(!real.is_empty(), "filtered run must emit events");
    for e in real.iter().take(50) {
        assert!(e.get("name").is_some() && e.get("ts").is_some() && e.get("pid").is_some());
        let cat = e.get("cat").and_then(|c| c.as_str()).unwrap();
        assert!(
            ["vec", "commit", "flush"].contains(&cat),
            "sub filter respected, got {cat}"
        );
    }

    // JSONL run: every line is one parseable event object.
    let spec = format!("sub=commit cycle=0..2000 sink=jsonl:{}", jsonl.display());
    let traced = run(&asm, Some(&spec));
    assert_eq!(base, traced, "a jsonl tracer must not change any statistic");
    let lines: Vec<String> = std::fs::read_to_string(&jsonl)
        .unwrap()
        .lines()
        .map(|l| l.to_string())
        .collect();
    assert!(!lines.is_empty(), "commit stream must produce events");
    for l in &lines {
        let e = json::parse(l).expect("each JSONL line parses");
        assert!(
            e.get("cycle").and_then(|c| c.as_u64()).unwrap() < 2000,
            "cycle filter respected"
        );
        assert_eq!(e.get("sub").and_then(|s| s.as_str()), Some("commit"));
    }

    for p in [asm, chrome, jsonl] {
        let _ = std::fs::remove_file(p);
    }
}
