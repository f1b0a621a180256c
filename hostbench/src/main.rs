//! `cfir-hostbench`: host-performance benchmark of one workload.
//!
//! ```text
//! cfir-hostbench --workload detailed|observed|sampled [--seed N] [--seconds S] [--trace 0|1]
//! cfir-hostbench --workload W [--seed N] --write-refs
//! ```
//!
//! One process runs one workload serially on one thread. The untraced
//! run (`--trace 0`) runs the workload's 12 jobs through
//! `JobSpec::execute` in a fixed number of passes, capped at
//! `--seconds`, and reports the end-to-end metrics. The traced run
//! (`--trace 1`) alternates untraced and traced passes of the
//! outside-in job path, then runs the differential probes, and reports
//! the per-layer metrics. Every job's snapshot is checked in every
//! pass. The last stdout line is the JSON result; `README.md` defines
//! every metric.

use cfir_emu::Emulator;
use cfir_harness::{fnv1a64, JobResult, JobSpec};
use cfir_hostbench::span::{chrome_trace, span_table, Tracer};
use cfir_hostbench::{build_workload, job_insts, run_config, run_job, Counts, JobOut, Workload};
use cfir_sample::{replay_window, WarmingEmulator};
use cfir_sim::{Mode, Pipeline};
use cfir_workloads::{WorkloadSpec, NAMES};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

/// Set-up rounds before each pass; `setup_s` takes each job's fastest.
const SETUP_ROUNDS_PER_PASS: usize = 20;

/// `run_seconds` in `BENCHMARK.json`: the default `--seconds`.
const RUN_SECONDS: f64 = 45.0;

/// Passes of an untraced run. Every job gets the same number of
/// repetitions on every host, so `kips` is always the fastest of the
/// same count. The counts fit `RUN_SECONDS` at the slowest pass
/// measured on the reference host (`README.md`); `--seconds` only caps
/// them.
fn passes(wl: Workload) -> usize {
    match wl {
        Workload::Detailed => 5,
        Workload::Observed => 7,
        Workload::Sampled => 5,
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_refs: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "cfir-hostbench: {msg}\n\
         usage: cfir-hostbench --workload detailed|observed|sampled [--seed N] [--seconds S] \
         [--trace 0|1] [--write-refs]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: Workload::Detailed,
        seed: WorkloadSpec::default().seed,
        seconds: RUN_SECONDS,
        trace: false,
        write_refs: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--write-refs" {
            a.write_refs = true;
            continue;
        }
        let val = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let bad = || -> ! { usage(&format!("bad value `{val}` for {flag}")) };
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(&val).unwrap_or_else(|| bad())),
            "--seed" => a.seed = val.parse().unwrap_or_else(|_| bad()),
            "--seconds" => {
                a.seconds = match val.parse::<f64>() {
                    Ok(s) if s > 0.0 => s,
                    _ => bad(),
                }
            }
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(),
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    a.workload = workload.unwrap_or_else(|| usage("--workload is required"));
    a
}

fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Set-up seconds of the workload's jobs, each part summed over jobs
/// of the job's fastest round: workload generation (`by_name`),
/// simulator construction (`Pipeline::new`, or `WarmingEmulator::new`
/// for sampled jobs) and, as a separate probe, `cfir_analyze::analyze`,
/// which `Pipeline::new` also runs.
struct Setup {
    gen: f64,
    new: f64,
    analyze: f64,
}

/// Per-job set-up samples, taken in rounds spread between the passes.
struct SetupTimer {
    with_analyze: bool,
    /// Per job: seconds in generation, construction and analysis.
    samples: Vec<[Vec<f64>; 3]>,
}

impl SetupTimer {
    fn new(jobs: &[JobSpec], with_analyze: bool) -> SetupTimer {
        SetupTimer {
            with_analyze,
            samples: vec![[Vec::new(), Vec::new(), Vec::new()]; jobs.len()],
        }
    }

    fn rounds(&mut self, jobs: &[JobSpec], n: usize) {
        for _ in 0..n {
            for (job, s) in jobs.iter().zip(&mut self.samples) {
                let t = Instant::now();
                let w = black_box(build_workload(job));
                s[0].push(secs_since(t));
                let cfg = run_config(job);
                let t = Instant::now();
                if job.sampling.is_some() {
                    let e = black_box(WarmingEmulator::new(&w.prog, w.mem.clone(), &cfg));
                    s[1].push(secs_since(t));
                    drop(e);
                } else {
                    let p = black_box(Pipeline::new(&w.prog, w.mem.clone(), cfg));
                    s[1].push(secs_since(t));
                    drop(p);
                }
                if self.with_analyze {
                    let t = Instant::now();
                    black_box(cfir_analyze::analyze(&w.prog));
                    s[2].push(secs_since(t));
                }
            }
        }
    }

    fn result(&self) -> Setup {
        let part = |i: usize| -> f64 {
            self.samples
                .iter()
                .map(|s| s[i].iter().copied().fold(f64::INFINITY, f64::min))
                .filter(|t| t.is_finite())
                .sum()
        };
        Setup {
            gen: part(0),
            new: part(1),
            analyze: part(2),
        }
    }
}

/// One pass of the outside-in job path (the traced run).
struct Pass {
    secs: f64,
    outs: Vec<Result<JobOut, String>>,
}

impl Pass {
    fn counts(&self) -> Counts {
        let mut c = Counts::default();
        for o in self.outs.iter().flatten() {
            c.add(&o.counts);
        }
        c
    }
}

fn panic_message(e: Box<dyn std::any::Any + Send>) -> String {
    e.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| e.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".into())
}

/// Run every job once through the outside-in path, serially, each
/// isolated from the others' panics.
fn run_pass(tr: &mut Tracer, jobs: &[JobSpec]) -> Pass {
    let t = Instant::now();
    tr.enter("bench.pass");
    let mut outs = Vec::with_capacity(jobs.len());
    for (i, job) in jobs.iter().enumerate() {
        tr.set_job(i as u32 + 1);
        tr.enter("bench.job");
        let depth = tr.depth();
        let out = catch_unwind(AssertUnwindSafe(|| run_job(tr, job))).map_err(panic_message);
        tr.close_to(depth);
        tr.exit();
        outs.push(out);
    }
    tr.set_job(0);
    tr.exit();
    Pass {
        secs: secs_since(t),
        outs,
    }
}

/// Run one job through the program's own entry point, `JobSpec::execute`,
/// isolated from panics; returns its host seconds and its result.
fn execute_timed(job: &JobSpec) -> (f64, Result<JobResult, String>) {
    let t = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| job.execute()))
        .map_err(panic_message)
        .and_then(|r| r);
    (secs_since(t), out)
}

fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn refs_path(wl: Workload, seed: u64) -> PathBuf {
    bench_dir()
        .join("refs")
        .join(format!("{}-{seed}.txt", wl.name()))
}

fn digest(r: &JobResult) -> u64 {
    fnv1a64(r.snapshot.as_bytes())
}

/// The committed snapshot digests for this workload and seed, in
/// kernel order, when the benchmark has them.
fn load_refs(wl: Workload, seed: u64) -> Option<Vec<u64>> {
    let text = std::fs::read_to_string(refs_path(wl, seed)).ok()?;
    let map: BTreeMap<&str, u64> = text
        .lines()
        .filter_map(|l| l.split_once(' '))
        .map(|(k, d)| {
            (
                k,
                u64::from_str_radix(d.trim(), 16).expect("hex digest in refs file"),
            )
        })
        .collect();
    Some(
        NAMES
            .iter()
            .map(|k| {
                *map.get(k)
                    .unwrap_or_else(|| panic!("refs file lacks kernel {k}"))
            })
            .collect(),
    )
}

/// Output verification: a job fails if it panics, if its snapshot
/// differs between passes, or if it differs from the committed
/// reference digest (when one exists for this workload and seed).
struct Checker {
    refs: Option<Vec<u64>>,
    first: Vec<Option<u64>>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    fn new(refs: Option<Vec<u64>>) -> Checker {
        Checker {
            refs,
            first: vec![None; NAMES.len()],
            attempted: 0,
            failed: 0,
        }
    }

    fn check_pass(&mut self, pass: &Pass) {
        for (k, out) in pass.outs.iter().enumerate() {
            self.check(k, out.as_ref().map(|o| &o.result));
        }
    }

    /// Check job `k`'s outcome.
    fn check(&mut self, k: usize, out: Result<&JobResult, &String>) {
        self.attempted += 1;
        let problem = match out {
            Err(e) => Some(format!("failed: {e}")),
            Ok(r) => {
                let d = digest(r);
                let first = *self.first[k].get_or_insert(d);
                if d != first {
                    Some(format!(
                        "snapshot {d:016x} differs from the first pass's {first:016x}"
                    ))
                } else {
                    match &self.refs {
                        Some(r) if r[k] != d => Some(format!(
                            "snapshot {d:016x} differs from reference {:016x}",
                            r[k]
                        )),
                        _ => None,
                    }
                }
            }
        };
        if let Some(p) = problem {
            self.failed += 1;
            eprintln!("cfir-hostbench: job {} failed: {p}", NAMES[k]);
        }
    }

    fn summary(&self, wl: Workload, seed: u64) -> String {
        let reference = match (&self.refs, self.failed) {
            (None, _) => format!("skipped (no digests for seed {seed})"),
            (Some(_), 0) => "passed".into(),
            (Some(_), _) => "FAILED".into(),
        };
        format!(
            "cfir-hostbench: {} seed {seed}: {} jobs, {} failed; reference check {reference}",
            wl.name(),
            self.attempted,
            self.failed
        )
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Ordered (name, value, unit) metrics.
type Metrics = Vec<(String, f64, &'static str)>;

fn print_result(c: &Checker, metrics: &Metrics) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, v, u)| format!("\"{k}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        c.failed == 0,
        c.attempted,
        c.failed,
        body.join(", ")
    );
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn end_to_end(a: &Args, jobs: &[JobSpec], c: &mut Checker) -> Metrics {
    let mut setup = SetupTimer::new(jobs, false);
    let start = Instant::now();
    let mut kips = Vec::new();
    // Per job: simulated instructions and fastest host seconds.
    let mut insts = vec![0; jobs.len()];
    let mut fastest = vec![f64::INFINITY; jobs.len()];
    let want = passes(a.workload);
    while kips.len() < want {
        setup.rounds(jobs, SETUP_ROUNDS_PER_PASS);
        let (mut pass_insts, mut pass_secs) = (0, 0.0);
        for (k, job) in jobs.iter().enumerate() {
            let (secs, out) = execute_timed(job);
            c.check(k, out.as_ref());
            if let Ok(r) = &out {
                insts[k] = job_insts(job, r);
                fastest[k] = fastest[k].min(secs);
                (pass_insts, pass_secs) = (pass_insts + insts[k], pass_secs + secs);
            }
        }
        kips.push(pass_insts as f64 / pass_secs / 1e3);
        // `--seconds` caps the run: start a pass only if it should end in time.
        if kips.len() < want && secs_since(start) + pass_secs > a.seconds {
            eprintln!(
                "cfir-hostbench: --seconds {} cut the run to {} of {want} passes",
                a.seconds,
                kips.len()
            );
            break;
        }
    }
    eprintln!(
        "cfir-hostbench: {} passes, kips per pass {kips:.1?}",
        kips.len()
    );
    let setup = setup.result();
    // Each job at its fastest repetition; jobs that never finished are left out.
    let done = || fastest.iter().zip(&insts).filter(|(t, _)| t.is_finite());
    let secs: f64 = done().map(|(t, _)| t).sum();
    let total: u64 = done().map(|(_, n)| n).sum();
    vec![
        ("kips".into(), ratio(total as f64, secs) / 1e3, "kinst/s"),
        ("setup_s".into(), setup.gen + setup.new, "s"),
        ("peak_rss_mb".into(), peak_rss_mb(), "MB"),
    ]
}

/// The differential probes, each a span under a `bench.probe` root:
/// the same jobs re-run with one layer switched off, so the layer's
/// host cost is the difference.
fn probes(tr: &mut Tracer, wl: Workload, jobs: &[JobSpec], last: &Pass) {
    tr.enter("bench.probe");
    for (i, (job, out)) in jobs.iter().zip(&last.outs).enumerate() {
        tr.set_job(i as u32 + 1);
        let w = build_workload(job);
        let cfg = run_config(job);
        let scalar = cfg.clone().with_mode(Mode::Scalar);
        match wl {
            Workload::Detailed => {
                let mut p = Pipeline::new(&w.prog, w.mem.clone(), cfg);
                tr.time("probe.mech_on_run", || p.run());
                let mut p = Pipeline::new(&w.prog, w.mem.clone(), scalar);
                tr.time("probe.mech_off_run", || p.run());
            }
            Workload::Observed => {
                let mut p = Pipeline::new(&w.prog, w.mem.clone(), cfg.clone());
                tr.time("probe.lifecycle_run", || p.run());
                let log = p.lifecycle().expect("observed jobs record a lifecycle");
                tr.time("probe.critpath", || {
                    cfir_obs::critpath::analyze(log, cfg.commit_width as u64, cfg.window as usize)
                });
                let mut bare = cfg.clone();
                bare.record_lifecycle = false;
                let mut p = Pipeline::new(&w.prog, w.mem.clone(), bare);
                tr.time("probe.bare_run", || p.run());
            }
            Workload::Sampled => {
                let Some(s) = out.as_ref().ok().and_then(|o| o.sampled.as_ref()) else {
                    continue;
                };
                let mut emu = Emulator::new(w.mem.clone());
                tr.time("probe.emu_run", || emu.run(&w.prog, s.ff_insts));
                let mut warm = WarmingEmulator::new(&w.prog, w.mem.clone(), &cfg);
                for (k, row) in s.windows.iter().enumerate() {
                    warm.fast_forward(row.start_inst - warm.retired());
                    let ckpt = warm.checkpoint();
                    let warmup = k as u64 * s.period - row.start_inst;
                    let p = tr.time("probe.window_new", || {
                        let mut wcfg = cfg.clone();
                        wcfg.max_insts = warmup;
                        let mut p = Pipeline::new(&w.prog, ckpt.memory(), wcfg);
                        p.restore_checkpoint(&ckpt.warm_start());
                        p
                    });
                    drop(p);
                    tr.time("probe.mech_on_window", || {
                        replay_window(&w.prog, &ckpt, &cfg, warmup, s.window)
                    });
                    tr.time("probe.mech_off_window", || {
                        replay_window(&w.prog, &ckpt, &scalar, warmup, s.window)
                    });
                }
            }
        }
    }
    tr.set_job(0);
    tr.exit();
}

/// Host seconds one span costs: an enter/exit pair on a recorder,
/// averaged over many pairs. The traced-minus-untraced difference is
/// within the host's pass-to-pass noise; this is the cost it contains.
fn span_cost() -> f64 {
    const PAIRS: u32 = 100_000;
    let mut tr = Tracer::on();
    let start = Instant::now();
    for _ in 0..PAIRS {
        tr.enter("bench.calibrate");
        tr.exit();
    }
    secs_since(start) / f64::from(PAIRS)
}

/// Layers whose self time the traced run reports, in table order.
const LAYERS: [&str; 6] = ["bench", "harness", "workloads", "sim", "obs", "sample"];

fn per_layer(a: &Args, jobs: &[JobSpec], c: &mut Checker) -> Metrics {
    let mut setup = SetupTimer::new(jobs, true);
    let sampled = a.workload == Workload::Sampled;

    // Alternate untraced and traced passes, and swap which goes first
    // in every other pair, so the host's drift and the first pass's
    // warm-up land on both sides of the overhead difference.
    let mut tr = Tracer::on();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut last = None;
    loop {
        setup.rounds(jobs, SETUP_ROUNDS_PER_PASS);
        let traced_first = traced.len() % 2 == 1;
        for on in [traced_first, !traced_first] {
            let pass = if on {
                run_pass(&mut tr, jobs)
            } else {
                run_pass(&mut Tracer::off(), jobs)
            };
            c.check_pass(&pass);
            if on {
                traced.push(pass.secs);
                last = Some(pass);
            } else {
                untraced.push(pass.secs);
            }
        }
        if secs_since(start) + 2.0 * traced[traced.len() - 1] > a.seconds {
            break;
        }
    }
    let last = last.expect("every pair has a traced pass");
    probes(&mut tr, a.workload, jobs, &last);
    let setup = setup.result();

    let n = traced.len() as f64;
    let table = span_table(tr.spans(), "bench.pass");
    let probe = span_table(tr.spans(), "bench.probe");
    let pass_s = |name: &str| table.get(name).map_or(0.0, |e| e.1) / n;
    let probe_s = |name: &str| probe.get(name).map_or(0.0, |e| e.1);
    let k = last.counts();
    let traced_s = pass_s("bench.pass");
    let untraced_s = untraced.iter().sum::<f64>() / untraced.len() as f64;
    let spans_per_pass = table.values().map(|e| e.0).sum::<u64>() as f64 / n;

    write_trace(a, &tr, &table, n, traced_s, untraced_s);

    let mut m: Metrics = vec![
        ("workloads.gen_s".into(), setup.gen, "s"),
        ("analyze.s".into(), setup.analyze, "s"),
        (
            "sim.new_s".into(),
            if sampled { 0.0 } else { setup.new },
            "s",
        ),
        (
            "sample.new_s".into(),
            if sampled { setup.new } else { 0.0 },
            "s",
        ),
        ("sim.run_s".into(), pass_s("sim.run"), "s"),
        (
            "sim.host_ns_per_cycle".into(),
            ratio(pass_s("sim.run") * 1e9, k.cycles as f64),
            "ns",
        ),
        ("sim.snapshot_s".into(), pass_s("sim.snapshot"), "s"),
        (
            "core.mech_s".into(),
            probe_s("probe.mech_on_run") + probe_s("probe.mech_on_window")
                - probe_s("probe.mech_off_run")
                - probe_s("probe.mech_off_window"),
            "s",
        ),
        ("sim.cycles".into(), k.cycles as f64, "count"),
        ("sim.committed".into(), k.committed as f64, "count"),
        (
            "core.replicas_executed".into(),
            k.replicas_executed as f64,
            "count",
        ),
        (
            "core.committed_reuse".into(),
            k.committed_reuse as f64,
            "count",
        ),
        ("predict.mispredicts".into(), k.mispredicts as f64, "count"),
        ("mem.l1d_misses".into(), k.l1d_misses as f64, "count"),
        ("mem.l2_misses".into(), k.l2_misses as f64, "count"),
        (
            "core.reuse_per_replica".into(),
            ratio(k.committed_reuse as f64, k.replicas_executed as f64),
            "ratio",
        ),
        (
            "predict.accuracy".into(),
            1.0 - ratio(k.mispredicts as f64, k.branches as f64),
            "ratio",
        ),
        ("obs.critpath_s".into(), probe_s("probe.critpath"), "s"),
        (
            "obs.record_s".into(),
            probe_s("probe.lifecycle_run") - probe_s("probe.critpath") - probe_s("probe.bare_run"),
            "s",
        ),
        ("obs.records".into(), k.lifecycle_records as f64, "count"),
        (
            "obs.records_per_inst".into(),
            ratio(k.lifecycle_records as f64, k.committed as f64),
            "ratio",
        ),
        ("obs.snapshot_s".into(), pass_s("obs.snapshot"), "s"),
        ("sample.window_s".into(), pass_s("sample.window"), "s"),
        (
            "sample.window_new_s".into(),
            probe_s("probe.window_new"),
            "s",
        ),
        ("sample.ff_s".into(), pass_s("sample.ff"), "s"),
        ("sample.ckpt_s".into(), pass_s("sample.ckpt"), "s"),
        ("emu.run_s".into(), probe_s("probe.emu_run"), "s"),
        (
            "sample.warm_s".into(),
            if probe.contains_key("probe.emu_run") {
                pass_s("sample.ff") - probe_s("probe.emu_run")
            } else {
                0.0
            },
            "s",
        ),
        ("sample.windows".into(), k.windows as f64, "count"),
        (
            "sample.detailed_insts".into(),
            k.detailed_insts as f64,
            "count",
        ),
        (
            "sample.measured_frac".into(),
            ratio(k.measured_insts as f64, k.detailed_insts as f64),
            "ratio",
        ),
        ("harness.key_s".into(), pass_s("harness.key"), "s"),
        ("harness.result_s".into(), pass_s("harness.result"), "s"),
        ("trace.pass_s".into(), traced_s, "s"),
        ("trace.untraced_pass_s".into(), untraced_s, "s"),
        ("trace.overhead_s".into(), traced_s - untraced_s, "s"),
        (
            "trace.span_cost_s".into(),
            spans_per_pass * span_cost(),
            "s",
        ),
        ("trace.spans_per_pass".into(), spans_per_pass, "count"),
    ];
    for layer in LAYERS {
        let own: f64 = table
            .iter()
            .filter(|(name, _)| name.split('.').next() == Some(layer))
            .map(|(_, e)| e.2)
            .sum();
        // `+ 0.0` turns the empty sum's -0.0 into 0.
        m.push((format!("self.{layer}_s"), own / n + 0.0, "s"));
    }
    m
}

/// Print the per-span self-time table and write it, with the Chrome
/// trace of every span, under `out/`.
fn write_trace(
    a: &Args,
    tr: &Tracer,
    table: &BTreeMap<&'static str, (u64, f64, f64)>,
    n: f64,
    traced_s: f64,
    untraced_s: f64,
) {
    let mut text = format!(
        "{} seed {}: per-pass host seconds over {n} traced passes\n{:<20} {:>8} {:>10} {:>10} {:>7}\n",
        a.workload.name(),
        a.seed,
        "span",
        "calls",
        "total_s",
        "self_s",
        "self%"
    );
    let self_sum: f64 = table.values().map(|e| e.2).sum::<f64>() / n;
    for (name, (calls, total, own)) in table {
        text += &format!(
            "{name:<20} {:>8} {:>10.4} {:>10.4} {:>6.1}%\n",
            *calls as f64 / n,
            total / n,
            own / n,
            100.0 * own / n / traced_s
        );
    }
    text += &format!(
        "self times sum to {self_sum:.4} s = traced pass {traced_s:.4} s; \
         untraced pass {untraced_s:.4} s; tracing overhead {:+.4} s ({:+.2}%)\n",
        traced_s - untraced_s,
        100.0 * (traced_s - untraced_s) / untraced_s
    );
    eprint!("{text}");
    let out = bench_dir().join("out");
    let stem = format!("{}-{}", a.workload.name(), a.seed);
    let written = std::fs::create_dir_all(&out)
        .and_then(|_| std::fs::write(out.join(format!("{stem}.layers.txt")), &text))
        .and_then(|_| {
            std::fs::write(
                out.join(format!("{stem}.trace.json")),
                chrome_trace(tr.spans()),
            )
        });
    match written {
        Ok(()) => eprintln!(
            "cfir-hostbench: spans in {}",
            out.join(format!("{stem}.trace.json")).display()
        ),
        Err(e) => eprintln!("cfir-hostbench: could not write {}: {e}", out.display()),
    }
}

/// Write the reference digests from one pass of `JobSpec::execute`.
fn write_refs(a: &Args, jobs: &[JobSpec]) {
    let mut text = String::new();
    for (k, job) in NAMES.iter().zip(jobs) {
        match execute_timed(job).1 {
            Ok(r) => text += &format!("{k} {:016x}\n", digest(&r)),
            Err(e) => {
                eprintln!("cfir-hostbench: not writing references: job {k} failed: {e}");
                std::process::exit(1);
            }
        }
    }
    let path = refs_path(a.workload, a.seed);
    std::fs::create_dir_all(path.parent().expect("refs dir")).expect("create refs dir");
    std::fs::write(&path, text).expect("write refs file");
    println!("wrote {}", path.display());
}

fn main() {
    let a = parse_args();
    let jobs = a.workload.jobs(a.seed);
    if a.write_refs {
        write_refs(&a, &jobs);
        return;
    }
    let mut c = Checker::new(load_refs(a.workload, a.seed));
    let metrics = if a.trace {
        per_layer(&a, &jobs, &mut c)
    } else {
        end_to_end(&a, &jobs, &mut c)
    };
    println!("{}", c.summary(a.workload, a.seed));
    print_result(&c, &metrics);
}
