//! One simulation point as data: the schedulable, cacheable job.

use cfir_obs::json::{self, JsonValue};
use cfir_obs::JsonWriter;
use cfir_sim::{IntervalSample, Pipeline, SimConfig, SimStats};
use cfir_workloads::{by_name, micro, Workload, WorkloadSpec};

/// Which program a job simulates.
#[derive(Debug, Clone)]
pub enum WorkloadRef {
    /// A named suite kernel (`cfir_workloads::by_name`).
    Named {
        /// Benchmark name (`bzip2` … `vpr`).
        name: String,
        /// Generation parameters (iterations, elements, seed).
        spec: WorkloadSpec,
    },
    /// The §2.4.2 multi-phase DAEC microbenchmark
    /// (`cfir_workloads::micro::multi_phase`).
    MultiPhase {
        /// Iterations before the active loop switches.
        phase_len: i64,
    },
    /// A synthetic job for harness self-tests: sleeps, then either
    /// returns a stub result or panics. Never part of a real matrix.
    SelfTest {
        /// Panic instead of returning (exercises panic isolation).
        panic: bool,
        /// Wall-clock stall before finishing (exercises the watchdog).
        sleep_ms: u64,
    },
}

impl WorkloadRef {
    /// Canonical text used inside the job fingerprint.
    fn fingerprint(&self) -> String {
        match self {
            WorkloadRef::Named { name, spec } => format!(
                "named:{name} iters={} elems={} seed={}",
                spec.iters, spec.elems, spec.seed
            ),
            WorkloadRef::MultiPhase { phase_len } => format!("multi-phase:{phase_len}"),
            WorkloadRef::SelfTest { panic, sleep_ms } => {
                format!("selftest:panic={panic},sleep={sleep_ms}")
            }
        }
    }

    /// Workload name as it appears in results and snapshots.
    pub fn display_name(&self) -> &str {
        match self {
            WorkloadRef::Named { name, .. } => name,
            WorkloadRef::MultiPhase { .. } => "multi-phase",
            WorkloadRef::SelfTest { .. } => "selftest",
        }
    }
}

/// Statistical-sampling parameters of a job (see `cfir_sample`).
/// `None` in a [`JobSpec`] means a conventional full detailed run;
/// `Some` routes the job through the checkpointed sampling driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplingParams {
    /// Instructions between successive detailed regions.
    pub period: u64,
    /// Detailed warmup instructions per window (excluded from stats).
    pub warmup: u64,
    /// Measured detailed instructions per window.
    pub window: u64,
}

/// One (workload, configuration) simulation point.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The program to run.
    pub workload: WorkloadRef,
    /// Full simulator configuration (mode, registers, ports, mechanism
    /// knobs, interval cadence — everything that shapes the run).
    pub cfg: SimConfig,
    /// Committed-instruction budget.
    pub max_insts: u64,
    /// `Some` = run under checkpointed statistical sampling instead of
    /// full detailed simulation. Part of the fingerprint either way,
    /// so sampled and full runs of the same point never share a cache
    /// entry.
    pub sampling: Option<SamplingParams>,
}

impl JobSpec {
    /// Canonical encoding of everything that affects this job's
    /// result. Two jobs with equal fingerprints are the same point;
    /// the on-disk cache stores the fingerprint next to the result and
    /// rejects entries whose fingerprint no longer matches, so a
    /// version bump (or any config drift) invalidates stale results
    /// instead of silently reusing them.
    pub fn fingerprint(&self) -> String {
        format!(
            "cfir v{} schema{} | {} | max_insts={} | sampling={:?} | {:?}",
            env!("CARGO_PKG_VERSION"),
            cfir_sim::SCHEMA_VERSION,
            self.workload.fingerprint(),
            self.max_insts,
            self.sampling,
            self.cfg,
        )
    }

    /// Content address: FNV-1a of the fingerprint.
    pub fn key(&self) -> u64 {
        crate::fnv1a64(self.fingerprint().as_bytes())
    }

    /// Short human label for progress and error messages, e.g.
    /// `bzip2/ci [3fa94c2b]`.
    pub fn display_name(&self) -> String {
        format!(
            "{}/{} [{:08x}]",
            self.workload.display_name(),
            self.cfg.mode.label(),
            self.key() >> 32,
        )
    }

    fn build_workload(&self) -> Result<Workload, String> {
        match &self.workload {
            WorkloadRef::Named { name, spec } => {
                by_name(name, *spec).ok_or_else(|| format!("unknown benchmark `{name}`"))
            }
            WorkloadRef::MultiPhase { phase_len } => Ok(micro::multi_phase(*phase_len)),
            WorkloadRef::SelfTest { .. } => unreachable!("selftest jobs never build a workload"),
        }
    }

    /// Run the simulation and reduce it to a [`JobResult`].
    ///
    /// Called on a pool worker thread; panics are caught by the pool,
    /// not here, so a crashing run fails this job alone.
    pub fn execute(&self) -> Result<JobResult, String> {
        if let WorkloadRef::SelfTest { panic, sleep_ms } = self.workload {
            if sleep_ms > 0 {
                std::thread::sleep(std::time::Duration::from_millis(sleep_ms));
            }
            if panic {
                panic!("selftest job panicking on request");
            }
            return Ok(JobResult {
                name: "selftest".into(),
                mode_label: self.cfg.mode.label().into(),
                stats: SimStats {
                    cycles: 1,
                    ..SimStats::default()
                },
                snapshot: "{}".into(),
                ..JobResult::default()
            });
        }
        let w = self.build_workload()?;
        let mut cfg = self.cfg.clone();
        cfg.max_insts = self.max_insts;
        cfg.cosim_check = false; // benchmarking: the oracle is exercised in tests
        let mode = cfg.mode;
        if let Some(sp) = self.sampling {
            let s = cfir_sample::run_sampled(
                &w.prog,
                &w.mem,
                w.name,
                cfg,
                cfir_sample::SamplingConfig {
                    period: sp.period,
                    warmup: sp.warmup,
                    window: sp.window,
                    ..Default::default()
                },
            );
            let snapshot = s.snapshot_json(mode.label());
            return Ok(JobResult::from_stats(
                w.name,
                mode.label(),
                &s.stats,
                snapshot,
            ));
        }
        let mut p = Pipeline::new(&w.prog, w.mem.clone(), cfg);
        // Scope any env-configured trace sink to this job so parallel
        // jobs do not clobber one another's trace files.
        p.scope_trace(&format!("{:016x}", self.key()));
        p.run();
        let snapshot = cfir_sim::run_json(w.name, mode.label(), &p.stats);
        Ok(JobResult::from_stats(
            w.name,
            mode.label(),
            &p.stats,
            snapshot,
        ))
    }
}

/// The reduced, cacheable result of one job: its run's counters, the
/// Figure 5 event counts, and the full `run_json` snapshot for
/// `--emit-json` bundles.
///
/// `stats` holds the window counters (`SimStats::window_counters`),
/// `reg_high_water` and the interval series; its histograms,
/// scorecards, stall breakdown and bottleneck report stay at their
/// defaults and live only in `snapshot`. The cache encodes exactly
/// these fields, so a fresh result and the same result read back from
/// the cache are the same value. `JobResult` derefs to that
/// `SimStats`: `r.committed`, `r.ipc()` and `r.intervals` read the
/// run's own counters and rate formulas.
#[derive(Debug, Clone, Default)]
pub struct JobResult {
    /// Workload name.
    pub name: String,
    /// Machine-mode label (`scal`, `wb`, `ci-iw`, `ci`, `vect`).
    pub mode_label: String,
    /// The run's counters (see the type's doc for what is carried).
    pub stats: SimStats,
    /// Figure-5 classification: mispredictions with no CI found.
    pub ev_not_found: u64,
    /// Figure-5 classification: CI selected but nothing reused.
    pub ev_selected: u64,
    /// Figure-5 classification: at least one instance reused.
    pub ev_reuse: u64,
    /// All dynamic conditional-branch mispredictions.
    pub total_mispredictions: u64,
    /// The full `cfir_sim::run_json` snapshot document.
    pub snapshot: String,
}

impl std::ops::Deref for JobResult {
    type Target = SimStats;

    fn deref(&self) -> &SimStats {
        &self.stats
    }
}

/// The cache encoding's version; a result of another version is
/// refused (the fingerprint changes with it anyway).
pub(crate) const RESULT_VERSION: u64 = 2;

impl JobResult {
    /// Reduce finished-run statistics to the carried counters, with
    /// the snapshot document rendered by the caller.
    pub fn from_stats(name: &str, mode_label: &str, s: &SimStats, snapshot: String) -> JobResult {
        let mut stats = SimStats {
            reg_high_water: s.reg_high_water,
            intervals: s.intervals.clone(),
            ..SimStats::default()
        };
        for ((_, slot), (_, v)) in stats.window_counters_mut().zip(s.window_counters()) {
            *slot = v;
        }
        let (nf, sel, reu) = s.branch_prof.event_counts();
        JobResult {
            name: name.to_string(),
            mode_label: mode_label.to_string(),
            stats,
            ev_not_found: nf,
            ev_selected: sel,
            ev_reuse: reu,
            total_mispredictions: s.branch_prof.total_mispredictions,
            snapshot,
        }
    }

    /// Figure-5 classification fractions of `total_mispredictions`
    /// (not-found, selected-without-reuse, reused).
    pub fn event_fractions(&self) -> (f64, f64, f64) {
        let t = self.total_mispredictions.max(1) as f64;
        (
            self.ev_not_found as f64 / t,
            self.ev_selected as f64 / t,
            self.ev_reuse as f64 / t,
        )
    }

    /// The carried counters outside the window list, by cache key.
    fn other_counters_mut(&mut self) -> [(&'static str, &mut u64); 5] {
        [
            ("reg_high_water", &mut self.stats.reg_high_water),
            ("ev_not_found", &mut self.ev_not_found),
            ("ev_selected", &mut self.ev_selected),
            ("ev_reuse", &mut self.ev_reuse),
            ("total_mispredictions", &mut self.total_mispredictions),
        ]
    }

    /// Serialize as one JSON object. Each interval is one array of its
    /// fields in declaration order.
    pub fn to_json(&self) -> String {
        self.encode(None)
    }

    /// The [`to_json`](Self::to_json) object, led by a cache entry's
    /// `fingerprint` when one is given: a cache entry is the result's
    /// own object, so its snapshot is escaped once.
    pub(crate) fn encode(&self, fingerprint: Option<&str>) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj();
        if let Some(fp) = fingerprint {
            w.field_str("fingerprint", fp);
        }
        w.field_u64("result_version", RESULT_VERSION)
            .field_str("name", &self.name)
            .field_str("mode", &self.mode_label);
        for (k, v) in self.stats.window_counters() {
            w.field_u64(k, v);
        }
        // A copy of just the other counters (not the snapshot), so both
        // directions go through the one list of `other_counters_mut`.
        let mut other = JobResult {
            name: String::new(),
            mode_label: String::new(),
            stats: SimStats {
                reg_high_water: self.reg_high_water,
                ..SimStats::default()
            },
            snapshot: String::new(),
            ..*self
        };
        for (k, v) in other.other_counters_mut() {
            w.field_u64(k, *v);
        }
        w.key("intervals").begin_arr();
        for i in &self.intervals {
            w.begin_arr()
                .u64_val(i.cycle)
                .u64_val(i.committed)
                .u64_val(i.committed_reuse)
                .u64_val(i.branches)
                .u64_val(i.mispredicts)
                .f64_val(i.interval_ipc)
                .f64_val(i.interval_mispredict_rate)
                .f64_val(i.interval_reuse_rate)
                .u64_val(i.rob_occupancy.into())
                .u64_val(i.regs_in_use.into())
                .end_arr();
        }
        w.end_arr();
        w.field_str("snapshot", &self.snapshot);
        w.end_obj();
        w.finish()
    }

    /// Parse a [`to_json`](Self::to_json) document; the error names
    /// what is malformed.
    pub fn from_json(doc: &str) -> Result<JobResult, String> {
        Self::decode(&json::parse(doc).map_err(|e| format!("invalid JSON: {e}"))?)
    }

    /// The result in a parsed [`encode`](Self::encode) object.
    pub(crate) fn decode(v: &JsonValue) -> Result<JobResult, String> {
        let u = |k: &str| -> Result<u64, String> {
            v.get(k)
                .and_then(|x| x.as_u64())
                .ok_or_else(|| format!("missing or non-integer field `{k}`"))
        };
        let s = |k: &str| -> Result<String, String> {
            v.get(k)
                .and_then(|x| x.as_str())
                .map(str::to_string)
                .ok_or_else(|| format!("missing or non-string field `{k}`"))
        };
        if u("result_version")? != RESULT_VERSION {
            return Err("unsupported result_version".into());
        }
        let mut r = JobResult {
            name: s("name")?,
            mode_label: s("mode")?,
            snapshot: s("snapshot")?,
            ..JobResult::default()
        };
        for (k, slot) in r.stats.window_counters_mut() {
            *slot = u(k)?;
        }
        for (k, slot) in r.other_counters_mut() {
            *slot = u(k)?;
        }
        let rows = v
            .get("intervals")
            .and_then(|x| x.as_arr())
            .ok_or("missing `intervals` array")?;
        for (n, row) in rows.iter().enumerate() {
            let sample = interval_from_json(row)
                .map_err(|k| format!("interval {n}: expected a 10-number array, bad `{k}`"))?;
            r.stats.intervals.push(sample);
        }
        Ok(r)
    }
}

/// One interval row of the cache encoding; the error names the field.
fn interval_from_json(row: &JsonValue) -> Result<IntervalSample, &'static str> {
    let a = row.as_arr().filter(|a| a.len() == 10).ok_or("length")?;
    let u = |k: usize, name: &'static str| a[k].as_u64().ok_or(name);
    let f = |k: usize, name: &'static str| a[k].as_f64().ok_or(name);
    let u32_at = |k: usize, name: &'static str| u(k, name)?.try_into().map_err(|_| name);
    Ok(IntervalSample {
        cycle: u(0, "cycle")?,
        committed: u(1, "committed")?,
        committed_reuse: u(2, "committed_reuse")?,
        branches: u(3, "branches")?,
        mispredicts: u(4, "mispredicts")?,
        interval_ipc: f(5, "interval_ipc")?,
        interval_mispredict_rate: f(6, "interval_mispredict_rate")?,
        interval_reuse_rate: f(7, "interval_reuse_rate")?,
        rob_occupancy: u32_at(8, "rob_occupancy")?,
        regs_in_use: u32_at(9, "regs_in_use")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfir_sim::{Mode, RegFileSize};

    fn spec(name: &str) -> JobSpec {
        JobSpec {
            workload: WorkloadRef::Named {
                name: name.into(),
                spec: WorkloadSpec {
                    iters: 1 << 30,
                    elems: 256,
                    seed: 7,
                },
            },
            cfg: cfir_sim::SimConfig::paper_baseline()
                .with_mode(Mode::Ci)
                .with_dports(1)
                .with_regs(RegFileSize::Finite(512)),
            max_insts: 2_000,
            sampling: None,
        }
    }

    #[test]
    fn fingerprint_distinguishes_points() {
        let a = spec("bzip2");
        let mut b = spec("bzip2");
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.key(), b.key());
        b.cfg.mech.strided_pc_slots = 4;
        assert_ne!(a.fingerprint(), b.fingerprint(), "mech knobs must key");
        let c = spec("gzip");
        assert_ne!(a.key(), c.key());
        let mut d = spec("bzip2");
        d.max_insts += 1;
        assert_ne!(a.key(), d.key());
        let mut e = spec("bzip2");
        e.sampling = Some(SamplingParams {
            period: 10_000,
            warmup: 1_000,
            window: 1_000,
        });
        assert_ne!(
            a.key(),
            e.key(),
            "sampled and full runs must not share a cache entry"
        );
    }

    #[test]
    fn sampled_job_executes_and_carries_the_sampling_object() {
        let mut s = spec("bzip2");
        s.max_insts = 40_000;
        s.sampling = Some(SamplingParams {
            period: 10_000,
            warmup: 1_000,
            window: 1_000,
        });
        let r = s.execute().expect("sampled job runs");
        assert!(r.cycles > 0);
        assert!(r.committed > 0, "measured windows commit instructions");
        let v = json::parse(&r.snapshot).expect("snapshot parses");
        let samp = v.get("sampling").expect("sampling object present");
        assert!(samp.get("windows").unwrap().as_arr().unwrap().len() >= 2);
        // Determinism across executions holds for sampled jobs too.
        let r2 = s.execute().unwrap();
        assert_eq!(r.to_json(), r2.to_json());
    }

    #[test]
    fn execute_and_roundtrip() {
        let r = spec("bzip2").execute().expect("runs");
        assert!(r.committed >= 2_000);
        assert!(r.ipc() > 0.1);
        assert!(!r.snapshot.is_empty());
        let back = JobResult::from_json(&r.to_json()).expect("roundtrips");
        assert_eq!(back.to_json(), r.to_json());
    }

    /// A result read back from its cache encoding carries every window
    /// counter, `reg_high_water`, every interval field and the Figure 5
    /// counts of the `SimStats` it was reduced from.
    fn assert_round_trip_carries(s: &SimStats, snapshot: String) {
        let fresh = JobResult::from_stats("kernel", "ci", s, snapshot);
        let back = JobResult::from_json(&fresh.to_json()).expect("round-trips");
        let want: Vec<_> = s.window_counters().collect();
        assert_eq!(back.window_counters().collect::<Vec<_>>(), want);
        assert_eq!(back.reg_high_water, s.reg_high_water);
        assert_eq!(back.intervals, s.intervals);
        let (nf, sel, reu) = s.branch_prof.event_counts();
        assert_eq!(
            (back.ev_not_found, back.ev_selected, back.ev_reuse),
            (nf, sel, reu)
        );
        assert_eq!(
            back.total_mispredictions,
            s.branch_prof.total_mispredictions
        );
        assert_eq!(back.to_json(), fresh.to_json(), "fresh and cached agree");
    }

    #[test]
    fn cache_encoding_carries_the_counters_of_a_full_and_a_sampled_run() {
        let mut job = spec("bzip2");
        job.max_insts = 20_000;
        let w = job.build_workload().unwrap();
        let mut cfg = job.cfg.clone().with_max_insts(job.max_insts);
        cfg.interval_cycles = 1_000;
        let mut p = Pipeline::new(&w.prog, w.mem.clone(), cfg.clone());
        p.run();
        assert!(p.stats.intervals.len() > 2 && p.stats.committed_reuse > 0);
        assert!(p.stats.branch_prof.event_counts().2 > 0);
        assert_round_trip_carries(&p.stats, cfir_sim::run_json(w.name, "ci", &p.stats));

        cfg.max_insts = 40_000;
        let sampling = cfir_sample::SamplingConfig {
            period: 10_000,
            warmup: 1_000,
            window: 1_000,
            ..Default::default()
        };
        let s = cfir_sample::run_sampled(&w.prog, &w.mem, w.name, cfg, sampling);
        assert!(s.windows.len() > 2 && s.stats.committed_reuse > 0);
        assert_round_trip_carries(&s.stats, s.snapshot_json("ci"));
    }

    #[test]
    fn malformed_result_names_the_field() {
        let r = spec("bzip2").execute().unwrap();
        let doc = r.to_json().replace("\"cycles\"", "\"cycles_gone\"");
        let err = JobResult::from_json(&doc).unwrap_err();
        assert!(err.contains("cycles"), "error must name the field: {err}");
    }

    #[test]
    fn deterministic_across_executions() {
        let a = spec("gcc").execute().unwrap();
        let b = spec("gcc").execute().unwrap();
        assert_eq!(
            a.to_json(),
            b.to_json(),
            "same job must reduce to identical results"
        );
    }
}
