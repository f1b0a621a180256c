//! `cfir analyze` — static CFG / post-dominator analysis of the
//! shipped kernels, with an agreement cross-check against the dynamic
//! reconvergence heuristic (`cfir_core::rcp::estimate`).
//!
//! ```sh
//! # Human-readable summary of every kernel:
//! cfir analyze --all
//!
//! # JSON bundle (one report object per kernel, schema-versioned):
//! cfir analyze --all --emit-json results/analyze.json
//!
//! # Analyze an assembly file instead of a named kernel:
//! cfir analyze path/to/prog.asm
//!
//! # CI gate: fail on any lint, and on RCP-agreement regression
//! # against the committed baseline:
//! cfir analyze --all --check --baseline results/baselines/analyze.json
//! ```
//!
//! `--check` exits 1 when any kernel trips a lint or (with
//! `--baseline`) when a kernel's hammock/all agreement fraction drops
//! more than `--tolerance` (default 0, the fractions are deterministic)
//! below the committed value. Exit codes: 0 ok, 1 gate failure or an
//! unwritable `--emit-json` file, 2 usage error or unreadable input.

use super::{emit_json, input_fail, load_program, Args};
use cfir::obs::json::{self, JsonWriter};
use cfir::report::parse_tolerance;
use cfir_analyze::{analyze, Agreement, ANALYZE_SCHEMA_VERSION};
use cfir_workloads::NAMES;
use std::process::exit;

const USAGE: &str = "\
usage: cfir analyze [<kernel|file.asm>...] [--all] [--emit-json [path.json]]
                    [--check] [--baseline <analyze.json>] [--tolerance P%]";

const CMD: &str = "cfir analyze";

struct KernelResult {
    name: String,
    agreement: Agreement,
    mean_cidi_fraction: f64,
    n_lints: usize,
}

pub fn main(args: Vec<String>) {
    let mut a = Args::new(CMD, USAGE, args);
    let mut names: Vec<String> = Vec::new();
    let mut json = false;
    let mut json_path: Option<String> = None;
    let mut check = false;
    let mut baseline: Option<String> = None;
    let mut tolerance = 0.0;
    while let Some(arg) = a.next() {
        match arg.as_str() {
            "--all" => names.extend(NAMES.iter().map(|s| s.to_string())),
            "--emit-json" => {
                json = true;
                json_path = a.json_path();
            }
            "--check" => check = true,
            "--baseline" => baseline = Some(a.value("--baseline")),
            "--tolerance" => {
                tolerance = a.parsed("--tolerance", "P% or a fraction", parse_tolerance)
            }
            _ if !arg.starts_with('-') => names.push(arg),
            _ => a.unexpected(&arg),
        }
    }
    if names.is_empty() {
        names.extend(NAMES.iter().map(|s| s.to_string()));
    }

    let mut w = JsonWriter::new();
    w.begin_obj();
    w.field_u64("schema_version", ANALYZE_SCHEMA_VERSION as u64);
    w.key("kernels").begin_arr();

    let mut results: Vec<KernelResult> = Vec::new();
    for name in &names {
        let (prog, _) = load_program(CMD, name);
        let an = analyze(&prog);
        let agreement = Agreement::compute(&prog, &an.branches);
        if !json {
            outln!(
                "{:10} {:4} insts {:3} blocks {:3} edges {:2} loops (depth {}) \
                 branches {:2}  rcp agree {}/{} hammock, {}/{} all  lints {}",
                prog.name,
                prog.len(),
                an.cfg.len(),
                an.cfg.n_edges,
                an.loops.loops.len(),
                an.loops.max_depth(),
                an.branches.len(),
                agreement.hammock_agree,
                agreement.hammock_checked,
                agreement.all_agree,
                agreement.all_checked,
                an.lints.len(),
            );
            for l in &an.lints {
                outln!("    lint: {l}");
            }
            for d in &agreement.divergences {
                outln!(
                    "    divergence at pc {}: static {:?} vs estimate {:?} ({})",
                    d.pc,
                    d.static_rcp,
                    d.estimate,
                    d.class
                );
            }
        }
        cfir_analyze::write_report(&prog, &an, &mut w);
        results.push(KernelResult {
            name: prog.name.clone(),
            agreement,
            mean_cidi_fraction: an.cidi.mean_cidi_fraction(),
            n_lints: an.lints.len(),
        });
    }
    w.end_arr();
    w.end_obj();
    if json {
        emit_json(CMD, json_path.as_deref(), &w.finish());
    }

    if !check {
        return;
    }
    let mut failed = false;
    for r in &results {
        if r.n_lints > 0 {
            eprintln!("{CMD}: {}: {} lint(s)", r.name, r.n_lints);
            failed = true;
        }
    }
    if let Some(path) = baseline {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| input_fail(CMD, &format!("cannot read baseline {path}: {e}")));
        let base = json::parse(&text)
            .unwrap_or_else(|e| input_fail(CMD, &format!("baseline {path}: {e}")));
        let kernels = base
            .get("kernels")
            .and_then(|k| k.as_arr())
            .unwrap_or_else(|| input_fail(CMD, &format!("baseline {path}: missing kernels array")));
        for r in &results {
            let Some(bk) = kernels
                .iter()
                .find(|k| k.get("name").and_then(|n| n.as_str()) == Some(r.name.as_str()))
            else {
                eprintln!("{CMD}: {}: not in baseline (skipping)", r.name);
                continue;
            };
            let checks = [
                ("hammock_fraction", r.agreement.hammock_fraction()),
                ("all_fraction", r.agreement.all_fraction()),
            ];
            for (key, fresh) in checks {
                let Some(base_v) = bk.get("agreement").and_then(|a| a.get(key)?.as_f64()) else {
                    continue;
                };
                if fresh < base_v - tolerance {
                    eprintln!(
                        "{CMD}: {}: {key} regressed {base_v:.4} -> {fresh:.4} \
                         (tolerance {tolerance:.4})",
                        r.name
                    );
                    failed = true;
                }
            }
            // Dataflow gate: a kernel's mean CIDI fraction dropping
            // below the committed value means the classifier started
            // demoting instructions it used to prove reusable.
            if let Some(base_v) = bk
                .get("cidi")
                .and_then(|c| c.get("mean_cidi_fraction")?.as_f64())
            {
                let fresh = r.mean_cidi_fraction;
                if fresh < base_v - tolerance {
                    eprintln!(
                        "{CMD}: {}: mean_cidi_fraction regressed {base_v:.4} -> \
                         {fresh:.4} (tolerance {tolerance:.4})",
                        r.name
                    );
                    failed = true;
                }
            }
        }
    }
    if failed {
        exit(1)
    }
    // Same wording as before the tools became subcommands: CI logs
    // compare this stdout.
    outln!("cfir-analyze: check ok ({} kernels)", results.len());
}
