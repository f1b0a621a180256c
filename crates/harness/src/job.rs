//! One simulation point as data: the schedulable, cacheable job.

use cfir_obs::json::{self, JsonValue};
use cfir_obs::JsonWriter;
use cfir_sim::{Pipeline, SimConfig};
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
            "cfir-suite v{} schema{} | {} | max_insts={} | sampling={:?} | {:?}",
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
                cycles: 1,
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

/// One interval sample carried through the cache (the columns
/// `exp_warmup` reports).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalRow {
    /// Cycle at which the sample was taken.
    pub cycle: u64,
    /// Instructions committed so far.
    pub committed: u64,
    /// Reused instructions committed so far.
    pub committed_reuse: u64,
    /// IPC over the last interval only.
    pub interval_ipc: f64,
}

/// The reduced, cacheable result of one job: every counter the
/// aggregators consume, plus the full `run_json` snapshot for
/// `--emit-json` bundles. Rates are recomputed from raw counters (same
/// formulas as `SimStats`) so cached and fresh results format
/// identically.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobResult {
    /// Workload name.
    pub name: String,
    /// Machine-mode label (`scal`, `wb`, `ci-iw`, `ci`, `vect`).
    pub mode_label: String,
    /// Simulated cycles.
    pub cycles: u64,
    /// Committed instructions.
    pub committed: u64,
    /// Committed instructions that reused a precomputed value.
    pub committed_reuse: u64,
    /// Conditional branches committed.
    pub branches: u64,
    /// Mispredicted conditional branches.
    pub mispredicts: u64,
    /// Wrong-path instructions squashed.
    pub squashed: u64,
    /// Replica instructions created by the vectorizer.
    pub replicas_created: u64,
    /// Replica instructions executed.
    pub replicas_executed: u64,
    /// Reuse validations that failed at decode.
    pub validation_failures: u64,
    /// Reuse validations that failed the commit-time check.
    pub commit_check_failures: u64,
    /// L1 D-cache accesses.
    pub l1d_accesses: u64,
    /// L1 D-cache misses.
    pub l1d_misses: u64,
    /// Stores committed.
    pub stores: u64,
    /// Stores conflicting with a speculatively-loaded range (§2.4.3).
    pub store_conflicts: u64,
    /// Sum of propagated-stridedPC set sizes (Figure 4's 1.7 average).
    pub strided_pc_sum: u64,
    /// Samples backing `strided_pc_sum`.
    pub strided_pc_samples: u64,
    /// Per-cycle register-occupancy integral (§2.4.2).
    pub reg_occupancy_sum: u64,
    /// High-water mark of physical registers in use.
    pub reg_high_water: u64,
    /// Figure-5 classification: mispredictions with no CI found.
    pub ev_not_found: u64,
    /// Figure-5 classification: CI selected but nothing reused.
    pub ev_selected: u64,
    /// Figure-5 classification: at least one instance reused.
    pub ev_reuse: u64,
    /// All dynamic conditional-branch mispredictions.
    pub total_mispredictions: u64,
    /// Interval time series (empty unless the config sampled).
    pub intervals: Vec<IntervalRow>,
    /// The full `cfir_sim::run_json` snapshot document.
    pub snapshot: String,
}

impl JobResult {
    /// Reduce finished-run statistics (the counters above plus the
    /// snapshot document rendered by the caller).
    pub fn from_stats(
        name: &str,
        mode_label: &str,
        s: &cfir_sim::SimStats,
        snapshot: String,
    ) -> JobResult {
        let (nf, sel, reu) = s.branch_prof.event_counts();
        JobResult {
            name: name.to_string(),
            mode_label: mode_label.to_string(),
            cycles: s.cycles,
            committed: s.committed,
            committed_reuse: s.committed_reuse,
            branches: s.branches,
            mispredicts: s.mispredicts,
            squashed: s.squashed,
            replicas_created: s.replicas_created,
            replicas_executed: s.replicas_executed,
            validation_failures: s.validation_failures,
            commit_check_failures: s.commit_check_failures,
            l1d_accesses: s.l1d_accesses,
            l1d_misses: s.l1d_misses,
            stores: s.stores,
            store_conflicts: s.store_conflicts,
            strided_pc_sum: s.strided_pc_sum,
            strided_pc_samples: s.strided_pc_samples,
            reg_occupancy_sum: s.reg_occupancy_sum,
            reg_high_water: s.reg_high_water,
            ev_not_found: nf,
            ev_selected: sel,
            ev_reuse: reu,
            total_mispredictions: s.branch_prof.total_mispredictions,
            intervals: s
                .intervals
                .iter()
                .map(|i| IntervalRow {
                    cycle: i.cycle,
                    committed: i.committed,
                    committed_reuse: i.committed_reuse,
                    interval_ipc: i.interval_ipc,
                })
                .collect(),
            snapshot,
        }
    }

    /// Instructions per cycle (same formula as `SimStats::ipc`).
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Conditional-branch misprediction rate.
    pub fn mispredict_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.branches as f64
        }
    }

    /// Fraction of committed instructions that reused a value.
    pub fn reuse_fraction(&self) -> f64 {
        if self.committed == 0 {
            0.0
        } else {
            self.committed_reuse as f64 / self.committed as f64
        }
    }

    /// Fraction of committed stores that hit a speculative load range.
    pub fn store_conflict_fraction(&self) -> f64 {
        if self.stores == 0 {
            0.0
        } else {
            self.store_conflicts as f64 / self.stores as f64
        }
    }

    /// Average propagated stridedPCs per propagating rename write.
    pub fn avg_strided_pcs(&self) -> f64 {
        if self.strided_pc_samples == 0 {
            0.0
        } else {
            self.strided_pc_sum as f64 / self.strided_pc_samples as f64
        }
    }

    /// Average physical registers in use per cycle.
    pub fn avg_regs_in_use(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.reg_occupancy_sum as f64 / self.cycles as f64
        }
    }

    /// Wrong-path activity as a fraction of all executed work (§4).
    pub fn wrong_path_fraction(&self) -> f64 {
        let wasted = self.squashed + self.replicas_executed;
        let total = self.committed + wasted;
        if total == 0 {
            0.0
        } else {
            wasted as f64 / total as f64
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

    /// Serialize for the on-disk cache.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.field_u64("result_version", 1)
            .field_str("name", &self.name)
            .field_str("mode", &self.mode_label);
        for (k, v) in self.u64_fields() {
            w.field_u64(k, v);
        }
        w.key("intervals").begin_arr();
        for i in &self.intervals {
            w.begin_arr()
                .u64_val(i.cycle)
                .u64_val(i.committed)
                .u64_val(i.committed_reuse)
                .f64_val(i.interval_ipc)
                .end_arr();
        }
        w.end_arr();
        w.field_str("snapshot", &self.snapshot);
        w.end_obj();
        w.finish()
    }

    /// Parse a cached result; the error names what is malformed.
    pub fn from_json(doc: &str) -> Result<JobResult, String> {
        let v = json::parse(doc).map_err(|e| format!("invalid JSON: {e}"))?;
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
        if u("result_version")? != 1 {
            return Err("unsupported result_version".into());
        }
        let mut intervals = Vec::new();
        for (n, row) in interval_rows(&v)?.iter().enumerate() {
            let arr = row
                .as_arr()
                .filter(|a| a.len() == 4)
                .ok_or_else(|| format!("interval {n}: expected a 4-element array"))?;
            intervals.push(IntervalRow {
                cycle: arr[0].as_u64().ok_or("interval cycle")?,
                committed: arr[1].as_u64().ok_or("interval committed")?,
                committed_reuse: arr[2].as_u64().ok_or("interval committed_reuse")?,
                interval_ipc: arr[3].as_f64().ok_or("interval ipc")?,
            });
        }
        let mut r = JobResult {
            name: s("name")?,
            mode_label: s("mode")?,
            intervals,
            snapshot: s("snapshot")?,
            ..JobResult::default()
        };
        for (k, slot) in r.u64_fields_mut() {
            *slot = u(k)?;
        }
        Ok(r)
    }

    fn u64_fields(&self) -> Vec<(&'static str, u64)> {
        let mut c = self.clone();
        c.u64_fields_mut()
            .into_iter()
            .map(|(k, v)| (k, *v))
            .collect()
    }

    /// One list of (key, field) pairs driving both serialization
    /// directions, so the two can never drift apart.
    fn u64_fields_mut(&mut self) -> Vec<(&'static str, &mut u64)> {
        vec![
            ("cycles", &mut self.cycles),
            ("committed", &mut self.committed),
            ("committed_reuse", &mut self.committed_reuse),
            ("branches", &mut self.branches),
            ("mispredicts", &mut self.mispredicts),
            ("squashed", &mut self.squashed),
            ("replicas_created", &mut self.replicas_created),
            ("replicas_executed", &mut self.replicas_executed),
            ("validation_failures", &mut self.validation_failures),
            ("commit_check_failures", &mut self.commit_check_failures),
            ("l1d_accesses", &mut self.l1d_accesses),
            ("l1d_misses", &mut self.l1d_misses),
            ("stores", &mut self.stores),
            ("store_conflicts", &mut self.store_conflicts),
            ("strided_pc_sum", &mut self.strided_pc_sum),
            ("strided_pc_samples", &mut self.strided_pc_samples),
            ("reg_occupancy_sum", &mut self.reg_occupancy_sum),
            ("reg_high_water", &mut self.reg_high_water),
            ("ev_not_found", &mut self.ev_not_found),
            ("ev_selected", &mut self.ev_selected),
            ("ev_reuse", &mut self.ev_reuse),
            ("total_mispredictions", &mut self.total_mispredictions),
        ]
    }
}

fn interval_rows(v: &JsonValue) -> Result<&[JsonValue], String> {
    v.get("intervals")
        .and_then(|x| x.as_arr())
        .ok_or_else(|| "missing `intervals` array".to_string())
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
        assert_eq!(r, r2);
    }

    #[test]
    fn execute_and_roundtrip() {
        let r = spec("bzip2").execute().expect("runs");
        assert!(r.committed >= 2_000);
        assert!(r.ipc() > 0.1);
        assert!(!r.snapshot.is_empty());
        let back = JobResult::from_json(&r.to_json()).expect("roundtrips");
        assert_eq!(back, r);
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
        assert_eq!(a, b, "same job must reduce to identical results");
    }
}
