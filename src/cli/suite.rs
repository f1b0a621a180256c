//! `cfir suite` — parallel, resumable orchestration of the whole
//! evaluation.
//!
//! Every figure/table/ablation is declared as data in
//! `cfir_bench::experiments`; this subcommand schedules any subset of
//! that matrix on the `cfir-harness` thread pool, with per-job
//! panic isolation, a wall-clock watchdog, and a
//! content-addressed result cache so `--resume` skips every point that
//! already ran. Aggregation reduces results in job-definition order,
//! so the artifacts under `results/` are byte-identical for `--jobs 1`
//! and `--jobs 16` — and identical to what the retired serial binaries
//! produced.
//!
//! ```sh
//! cfir suite --all --jobs $(nproc)        # regenerate everything
//! cfir suite --all --resume               # again, from cache (0 jobs)
//! cfir suite fig09 fig10 --emit-json      # a subset, with JSON bundles
//! cfir suite --profile smoke --jobs 2     # the CI fast path
//! cfir suite sweep --modes scal,ci --regs 128,inf --bench crafty
//! cfir suite --list                       # what exists
//! ```

use super::{parse_regs, write_file, Args};
use cfir::sim::Mode;
use cfir::workloads::NAMES;
use cfir_bench::experiments::{
    by_name, experiment_names, profile, sweep_experiment, Params, SweepAxes, PROFILES,
};
use cfir_harness::{run_suite, Experiment, SuiteOptions};
use std::time::Duration;

const USAGE: &str = "\
usage: cfir suite [experiments..] [flags]
  <name>..          experiments to run (see --list)
  --all             every experiment, canonical order
  --profile NAME    smoke | figures | ablations | extras | all
  --jobs N          worker threads (default: available parallelism)
  --resume          reuse cached results for unchanged points
  --timeout SECS    per-job wall-clock budget (default 600, 0 = none)
  --cache-dir PATH  result cache (default target/cfir-suite-cache)
  --out-dir PATH    artifact directory (default results/)
  --emit-json       also write JSON snapshot bundles
  --bench-json [P]  write a wall-clock benchmark summary JSON
                    (default path BENCH_6.json)
  --insts N         committed-instruction budget (= CFIR_INSTS)
  --quiet           suppress per-experiment tables
  --list            list experiments and profiles, run nothing
sweep axes (only with the `sweep` experiment):
  --modes M,..      machine modes (default wb,ci)
  --regs N|inf,..   register-file sizes (default 512)
  --ports N,..      L1D ports (default 1)
  --replicas N,..   replicas per vectorized instruction (default 4)
  --bench NAME      one kernel instead of the whole suite
env: CFIR_INSTS, CFIR_ELEMS (a power of two), CFIR_SEED;
     a set value that does not parse is a usage error
exit: 0 all ok; 1 any job/aggregation failed; 2 usage error";

const CMD: &str = "cfir suite";

fn list(p: &Params) {
    println!("experiments:");
    for name in experiment_names() {
        let e = by_name(p, name).expect("every registered name builds");
        println!("  {:<14} {:>4} jobs  {}", e.name, e.jobs.len(), e.title);
    }
    println!("profiles:");
    for prof in PROFILES {
        let names = profile(prof).expect("every listed profile resolves");
        println!("  {:<14} {}", prof, names.join(" "));
    }
}

/// A comma-separated list of values, each parsed with `parse`.
fn list_of<T>(a: &mut Args, flag: &str, what: &str, parse: impl Fn(&str) -> Option<T>) -> Vec<T> {
    a.parsed(flag, what, |v| {
        v.split(',').map(|x| parse(x.trim())).collect()
    })
}

/// The `results/INDEX.md` preamble; the experiment list below it is
/// generated from the matrix itself.
const INDEX_HEADER: &str = "# results/\n\n\
    Outputs of the evaluation suite (see EXPERIMENTS.md for the\n\
    paper-vs-measured discussion). Regenerate everything with\n\
    `cfir suite --all --jobs $(nproc)`; any single experiment with\n\
    `cfir suite <name>`.\n\n\
    - `final_run.txt` — **the canonical record**: one full sequential run of\n\
    \x20 table1 + fig04..fig14 + exp_regs + exp_coherence + ablations +\n\
    \x20 exp_limit + exp_warmup with the final code and defaults\n\
    \x20 (CFIR_INSTS=150000).\n\
    - `all_figures.txt`, `updates.txt` — earlier intermediate runs kept for\n\
    \x20 provenance (pre- event-attribution fix and pre- blacklist-knob).\n\
    - `*.csv` — machine-readable tables (latest run wins).\n\
    - `baselines/` — the pinned CI perf-gate reference (CFIR_INSTS=20000);\n\
    \x20 refresh with `scripts/refresh-baselines.sh`.\n\n\
    Experiments and the artifacts they own:\n\n";

fn write_index(experiments: &[Experiment], out_dir: &std::path::Path) {
    let mut doc = String::from(INDEX_HEADER);
    for e in experiments {
        use std::fmt::Write as _;
        let _ = writeln!(doc, "- `{}` ({} jobs) — {}", e.name, e.jobs.len(), e.title);
    }
    let _ = std::fs::create_dir_all(out_dir);
    let path = out_dir.join("INDEX.md");
    if let Err(e) = std::fs::write(&path, doc) {
        eprintln!("{CMD}: could not write {}: {e}", path.display());
    }
}

pub fn main(args: Vec<String>) {
    let mut a = Args::new(CMD, USAGE, args);
    let mut names: Vec<String> = Vec::new();
    let mut all = false;
    let mut do_list = false;
    let mut bench_json: Option<String> = None;
    let mut insts: Option<u64> = None;
    let mut opts = SuiteOptions::default();
    // Set iff a sweep-axis flag was given.
    let mut axes: Option<SweepAxes> = None;
    while let Some(arg) = a.next() {
        match arg.as_str() {
            "--list" => do_list = true,
            "--all" => all = true,
            "--profile" => {
                let v = a.value("--profile");
                let p = profile(&v).unwrap_or_else(|| a.fail(&format!("unknown profile `{v}`")));
                names.extend(p.iter().map(|s| s.to_string()));
            }
            "--jobs" => opts.jobs = a.num("--jobs"),
            "--timeout" => {
                let secs: u64 = a.num("--timeout");
                opts.timeout = (secs > 0).then(|| Duration::from_secs(secs));
            }
            "--cache-dir" => opts.cache_dir = Some(a.value("--cache-dir").into()),
            "--out-dir" => opts.out_dir = a.value("--out-dir").into(),
            "--emit-json" => opts.emit_json = true,
            "--bench-json" => {
                bench_json = Some(a.json_path().unwrap_or_else(|| "BENCH_6.json".into()))
            }
            "--resume" => opts.resume = true,
            "--quiet" => opts.quiet = true,
            "--insts" => insts = Some(a.num("--insts")),
            flag @ ("--modes" | "--regs" | "--ports" | "--replicas" | "--bench") => {
                let axes = axes.get_or_insert_with(SweepAxes::default);
                match flag {
                    "--modes" => {
                        axes.modes = list_of(&mut a, flag, "modes like wb,ci", Mode::from_label)
                    }
                    "--regs" => axes.regs = list_of(&mut a, flag, "sizes like 128,inf", parse_regs),
                    "--ports" => {
                        axes.ports = list_of(&mut a, flag, "numbers like 1,2", |v| v.parse().ok())
                    }
                    "--replicas" => {
                        axes.replicas =
                            list_of(&mut a, flag, "numbers like 2,4", |v| v.parse().ok())
                    }
                    _ => {
                        let known = |v: &str| NAMES.contains(&v).then(|| v.to_string());
                        axes.bench = Some(a.parsed(flag, "a kernel name", known))
                    }
                }
            }
            _ if !arg.starts_with('-') => names.push(arg),
            _ => a.unexpected(&arg),
        }
    }
    let mut p = Params::from_env().unwrap_or_else(|e| a.fail(&e));
    if do_list {
        return list(&p);
    }
    if all {
        names = experiment_names().map(String::from).collect();
    } else {
        // Keep first occurrence of each requested name.
        let mut seen = std::collections::HashSet::new();
        names.retain(|n| seen.insert(n.clone()));
    }
    if names.is_empty() {
        a.fail("nothing to run (name experiments, --profile, or --all)");
    }
    if axes.is_some() && !names.iter().any(|n| n == "sweep") {
        a.fail("--modes/--regs/--ports/--replicas/--bench set the axes of the `sweep` experiment, which is not selected");
    }

    if let Some(n) = insts {
        p.max_insts = n;
    }
    let experiments: Vec<Experiment> = names
        .iter()
        .map(|n| match (n.as_str(), &axes) {
            ("sweep", Some(axes)) => sweep_experiment(&p, axes),
            _ => by_name(&p, n)
                .unwrap_or_else(|| a.fail(&format!("unknown experiment `{n}` (see --list)"))),
        })
        .collect();

    if all {
        write_index(&experiments, &opts.out_dir);
    }
    let report = run_suite(experiments, &opts);
    for e in &report.experiments {
        if let Some(err) = &e.error {
            eprintln!("{CMD}: {}: {err}", e.name);
        }
    }
    println!("{}", report.summary_line());
    if let Some(path) = &bench_json {
        // Key order and the original three keys are stable; newer
        // fields only ever append (downstream tooling greps these).
        use std::fmt::Write as _;
        let mut doc = format!(
            "{{\"suite_wall_s\": {:.3}, \"jobs\": {}, \"cache_hits\": {}, \"peak_workers\": {}, \"experiments\": [",
            report.wall.as_secs_f64(),
            report.executed,
            report.cached,
            report.peak_workers
        );
        for (i, e) in report.experiments.iter().enumerate() {
            let _ = write!(
                doc,
                "{}{{\"name\": \"{}\", \"wall_s\": {:.3}, \"executed\": {}, \"cached\": {}, \"ok\": {}, \"jobs\": {}, \"deduped\": {}}}",
                if i > 0 { ", " } else { "" },
                e.name,
                e.wall.as_secs_f64(),
                e.executed,
                e.cached,
                e.ok(),
                e.jobs,
                e.deduped
            );
        }
        // Detailed-core throughput of the points simulated this run
        // (cache hits excluded); `insts_per_sec` is what the CI perf
        // gate compares against the committed floor.
        let committed: u64 = report.perf.iter().map(|p| p.committed).sum();
        let wall_s: f64 = report.perf.iter().map(|p| p.wall.as_secs_f64()).sum();
        let _ = write!(
            doc,
            "], \"perf\": {{\"committed_insts\": {committed}, \"detailed_wall_s\": {wall_s:.3}, \"insts_per_sec\": {:.1}, \"kernels\": [",
            if wall_s > 0.0 { committed as f64 / wall_s } else { 0.0 }
        );
        for (i, p) in report.perf.iter().enumerate() {
            let _ = write!(
                doc,
                "{}{{\"name\": \"{}\", \"mode\": \"{}\", \"committed\": {}, \"wall_s\": {:.3}, \"insts_per_sec\": {:.1}}}",
                if i > 0 { ", " } else { "" },
                p.name,
                p.mode,
                p.committed,
                p.wall.as_secs_f64(),
                p.insts_per_sec()
            );
        }
        doc.push_str("]}}\n");
        write_file(CMD, path, &doc);
        println!("[bench summary written to {path}]");
    }
    std::process::exit(if report.all_ok() { 0 } else { 1 })
}

#[cfg(test)]
mod tests {
    #[test]
    fn committed_index_carries_the_current_header() {
        let index = include_str!("../../results/INDEX.md");
        assert!(index.starts_with(super::INDEX_HEADER));
    }
}
