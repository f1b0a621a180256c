//! `cfir report` — inspect, diff and gate the simulator's JSON
//! snapshots (see `DESIGN.md` for the schema).
//!
//! ```sh
//! # Pretty-print a snapshot (single run or bundle):
//! cfir report results/smoke.json
//!
//! # Per-metric deltas between two snapshots; exit 1 when a gating
//! # metric (IPC, reuse fraction, CI-exploited fraction) regresses:
//! cfir report diff results/baselines/smoke.json results/smoke.json
//!
//! # Same, phrased as a regression gate (CI uses this):
//! cfir report check results/baselines/smoke.json results/smoke.json --tolerance 2%
//!
//! # Render a Konata pipeview trace (from `cfir run --pipeview t.kanata`)
//! # as an ASCII timeline, zoomed on the first misprediction flush:
//! cfir report timeline t.kanata --around-mispredict 1
//! ```
//!
//! `--tolerance` accepts `2%` or `0.02` (default `2%`); it is the
//! relative move a gating metric may make in the bad direction before
//! the check fails. Exit codes: 0 ok, 1 regression, 2 usage/IO error.
//!
//! `timeline` filters: `--pc N` (only that static instruction),
//! `--cycle-range LO..HI`, `--around-mispredict N` (window on the Nth
//! squash cluster, 1-based), `--width N` (columns, default 96).

use super::{input_fail, parse_num, Args};
use cfir::obs::json::JsonValue;
use cfir::obs::{parse_konata, render_timeline, TimelineOpts};
use cfir::report;
use std::process::exit;

const USAGE: &str = "\
usage: cfir report <snapshot.json>
       cfir report diff  <old.json> <new.json> [--tolerance P%]
       cfir report check <baseline.json> <run.json> [--tolerance P%]
       cfir report bottleneck <run.json> [<baseline.json>]
       cfir report cidi <run.json>
       cfir report sampling <sampled.json> [<full.json>]
       cfir report timeline <trace.kanata> [--pc N] [--cycle-range LO..HI]
                   [--around-mispredict N] [--width N]";

const CMD: &str = "cfir report";

fn timeline(mut a: Args) {
    let mut path: Option<String> = None;
    let mut opts = TimelineOpts::default();
    while let Some(arg) = a.next() {
        match arg.as_str() {
            "--pc" => opts.pc = Some(a.parsed("--pc", "a number", parse_num)),
            "--cycle-range" => {
                opts.cycle_range = Some(a.parsed("--cycle-range", "LO..HI", |r| {
                    let (lo, hi) = r.split_once("..")?;
                    Some((parse_num(lo)?, parse_num(hi)?))
                }))
            }
            "--around-mispredict" => opts.around_mispredict = Some(a.num("--around-mispredict")),
            "--width" => {
                opts.max_cols = a.parsed("--width", "a number >= 24", |v| {
                    parse_num(v).filter(|&n| n >= 24)
                }) as usize
            }
            _ if path.is_none() && !arg.starts_with('-') => path = Some(arg),
            _ => a.unexpected(&arg),
        }
    }
    let path = path.unwrap_or_else(|| a.fail("timeline wants a trace file"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| input_fail(CMD, &format!("cannot read {path}: {e}")));
    let trace = parse_konata(&text).unwrap_or_else(|e| input_fail(CMD, &format!("{path}: {e}")));
    let out = render_timeline(&trace, &opts).unwrap_or_else(|e| input_fail(CMD, &e.to_string()));
    out!("{out}");
}

fn load(path: &str) -> JsonValue {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| input_fail(CMD, &format!("cannot read {path}: {e}")));
    report::parse_doc(&text).unwrap_or_else(|e| input_fail(CMD, &format!("{path}: {e}")))
}

/// Warn (loudly) when any run of the document recorded dropped
/// lifecycle records; returns the count so `check` can gate on it.
fn warn_dropped(path: &str, doc: &JsonValue) -> u64 {
    let dropped = report::lifecycle_dropped(doc);
    if dropped > 0 {
        eprintln!(
            "{CMD}: WARNING: {path}: {dropped} lifecycle records were dropped — \
             the bottleneck DAG (critical path, what-if projections) is incomplete; \
             re-run with an unbounded ring (record_lifecycle) to trust these numbers"
        );
    }
    dropped
}

pub fn main(args: Vec<String>) {
    let mut a = Args::new(CMD, USAGE, args);
    if a.peek() == Some("timeline") {
        a.next();
        return timeline(a);
    }
    let mut files: Vec<String> = Vec::new();
    let mut sub: Option<String> = None;
    let mut tolerance = 0.02;
    while let Some(arg) = a.next() {
        match arg.as_str() {
            "diff" | "check" | "--check" | "bottleneck" | "cidi" | "sampling"
                if sub.is_none() && files.is_empty() =>
            {
                sub = Some(arg.trim_start_matches("--").to_string());
            }
            "--tolerance" => {
                tolerance = a.parsed("--tolerance", "P% or a fraction", report::parse_tolerance)
            }
            _ if !arg.starts_with('-') => files.push(arg),
            _ => a.unexpected(&arg),
        }
    }
    let files: Vec<&str> = files.iter().map(String::as_str).collect();
    let render =
        |out: Result<String, String>| out!("{}", out.unwrap_or_else(|e| input_fail(CMD, &e)));

    match (sub.as_deref(), files.as_slice()) {
        (None, [path]) => {
            let doc = load(path);
            warn_dropped(path, &doc);
            out!("{}", report::render(&doc));
        }
        (Some("cidi"), [path]) => render(report::render_cidi(&load(path))),
        (Some("sampling"), [path]) => render(report::render_sampling(&load(path), None)),
        (Some("sampling"), [path, full]) => {
            let doc = load(path);
            render(report::render_sampling(&doc, Some(&load(full))))
        }
        (Some("bottleneck"), [new, rest @ ..]) if rest.len() <= 1 => {
            let new_doc = load(new);
            warn_dropped(new, &new_doc);
            let old_doc = rest.first().map(|old| load(old));
            render(report::render_bottleneck(&new_doc, old_doc.as_ref()))
        }
        (Some(sub @ ("diff" | "check")), [old, new]) => {
            let (old_doc, new_doc) = (load(old), load(new));
            warn_dropped(old, &old_doc);
            let dropped = warn_dropped(new, &new_doc);
            let outcome =
                report::diff(&old_doc, &new_doc, tolerance).unwrap_or_else(|e| input_fail(CMD, &e));
            out!("{}", outcome.report);
            if outcome.regressed {
                eprintln!(
                    "{CMD}: regression beyond {:.2}% tolerance",
                    tolerance * 100.0
                );
                exit(1)
            }
            if sub == "check" && dropped > 0 {
                eprintln!("{CMD}: failing --check: the run dropped lifecycle records");
                exit(1)
            }
            outln!("ok (tolerance {:.2}%)", tolerance * 100.0);
        }
        _ => a.fail("wrong number of files for this report"),
    }
}
