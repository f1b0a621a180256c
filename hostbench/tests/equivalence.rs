//! The traced paths run the real program: the benchmark's outside-in
//! job path reproduces `JobSpec::execute`, and its outside-in sampling
//! loop reproduces `cfir_sample::run_sampled`, byte for byte, traced or
//! not.
//!
//! Run with `cargo test --release --manifest-path hostbench/Cargo.toml`.

use cfir_hostbench::span::Tracer;
use cfir_hostbench::{build_workload, job_insts, run_config, run_job, sample, Workload};
use cfir_sample::{run_sampled, SamplingConfig};
use cfir_workloads::WorkloadSpec;

fn seed() -> u64 {
    WorkloadSpec::default().seed
}

#[test]
fn full_run_jobs_match_jobspec_execute() {
    let short = [Workload::Detailed, Workload::Observed]
        .into_iter()
        .flat_map(|wl| wl.jobs_sized(seed(), 5_000));
    // Two jobs of each at the workload's own size as well.
    let full = [Workload::Detailed, Workload::Observed]
        .into_iter()
        .flat_map(|wl| wl.jobs(seed()).into_iter().step_by(6));
    for job in short.chain(full) {
        let real = job.execute().expect("job runs");
        let expect = real.to_json();
        for mut tr in [Tracer::off(), Tracer::on()] {
            let out = run_job(&mut tr, &job);
            assert!(
                out.result.to_json() == expect,
                "{}: job path diverged from execute",
                job.display_name()
            );
            assert_eq!(out.insts, job_insts(&job, &real));
        }
    }
}

#[test]
fn sampled_loop_matches_run_sampled() {
    let short = Workload::Sampled.jobs_sized(seed(), 120_000);
    let full = Workload::Sampled.jobs(seed()).into_iter().step_by(6);
    for job in short.into_iter().chain(full) {
        let w = build_workload(&job);
        let cfg = run_config(&job);
        let label = cfg.mode.label();
        let real = run_sampled(
            &w.prog,
            &w.mem,
            w.name,
            cfg.clone(),
            SamplingConfig::default(),
        );
        let ours = sample(
            &mut Tracer::on(),
            &w.prog,
            &w.mem,
            w.name,
            cfg,
            &SamplingConfig::default(),
        );
        assert!(!real.windows.is_empty());
        assert_eq!(ours.windows, real.windows, "{}: window rows", w.name);
        assert_eq!(
            (
                ours.ff_insts,
                ours.detailed_insts,
                ours.measured_insts,
                ours.halted
            ),
            (
                real.ff_insts,
                real.detailed_insts,
                real.measured_insts,
                real.halted
            ),
            "{}: run totals",
            w.name
        );
        assert!(
            ours.snapshot_json(label) == real.snapshot_json(label),
            "{}: snapshot diverged",
            w.name
        );
        let real_job = job.execute().expect("job runs");
        assert!(
            run_job(&mut Tracer::off(), &job).result.to_json() == real_job.to_json(),
            "{}: sampled job path diverged from execute",
            job.display_name()
        );
        assert_eq!(
            job_insts(&job, &real_job),
            real.ff_insts,
            "{}: ff_insts",
            w.name
        );
    }
}

#[test]
fn traced_job_spans_cover_every_layer_call() {
    let job = &Workload::Sampled.jobs_sized(seed(), 60_000)[0];
    let mut tr = Tracer::on();
    run_job(&mut tr, job);
    let names: Vec<&str> = tr.spans().iter().map(|s| s.name).collect();
    for want in [
        "harness.key",
        "workloads.gen",
        "sample.new",
        "sample.ff",
        "sample.ckpt",
        "sample.window",
        "sim.snapshot",
        "harness.result",
    ] {
        assert!(names.contains(&want), "no {want} span in {names:?}");
    }
    assert!(tr
        .spans()
        .iter()
        .all(|s| s.end_ns >= s.start_ns && s.parent.is_none()));
}
