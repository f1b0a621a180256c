//! Machine-readable per-run telemetry snapshot (`--emit-json`).
//!
//! One run → one versioned JSON document containing every headline
//! metric plus the stall breakdown, latency histograms and interval
//! time series. The schema is documented in `DESIGN.md`; bump
//! [`SCHEMA_VERSION`] on any breaking change so downstream tooling can
//! reject snapshots it does not understand.

use crate::prof::BranchScore;
use crate::stats::SimStats;
use cfir_obs::critpath::{CpiStack, ALL_CLASSES};
use cfir_obs::stall::ALL_CAUSES;
use cfir_obs::{Hist, JsonValue, JsonWriter};

/// Version stamped into every snapshot (`"schema_version"` field).
///
/// History:
/// * **1** — initial schema (metrics, valfail reasons, memory, stall
///   breakdown, histograms, intervals).
/// * **2** — additive: histogram percentiles (`p50`/`p90`/`p99`),
///   extended interval samples (branch counters, rates, occupancy) and
///   the per-branch `branch_prof` scorecard. Every v1 key is unchanged,
///   so v1 consumers can read v2 documents.
/// * **3** — additive: the static-vs-dynamic `oracle` object
///   (runtime RCP-agreement counters and the MBS cross-check), plus
///   per-branch `rcp_checks`/`rcp_agree` counters and the optional
///   `static_rcp`/`hammock_class` keys (omitted when unknown). Every
///   v2 key is unchanged, so v2 consumers can read v3 documents.
/// * **4** — additive: the `lifecycle` object (`records`/`dropped`
///   counters from the per-instruction recorder; both 0 unless
///   `--pipeview` was on). Every v3 key is unchanged, so v3 consumers
///   can read v4 documents.
/// * **5** — additive: the `bottleneck` object. `bottleneck.cpi_stack`
///   (the six top-down groups; always present, groups sum to
///   `cycles × commit_width`) plus — only when lifecycle recording
///   covered the whole run — `bottleneck.critical_path` (per-class
///   cycle attribution summing exactly to `span`, top segments with
///   PCs, per-branch refetch cycles) and `bottleneck.whatif` (the
///   speed-limit rows; every `projected_cycles` ≤ `cycles`). Every v4
///   key is unchanged, so v4 consumers can read v5 documents.
/// * **6** — additive: the `dataflow_oracle` object (runtime scoring
///   of the static CIDI/CIDD verdicts against actual reuse outcomes)
///   plus per-branch `cidi_checks`/`cidi_agree` counters. Every v5
///   key is unchanged, so v5 consumers can read v6 documents.
/// * **7** — additive: the optional `sampling` object (present only on
///   runs produced by the `cfir-sample` statistical-sampling driver):
///   sampling parameters, fast-forward/detailed instruction counts,
///   per-metric `{n, mean, half_width}` 95%-CI estimates for IPC /
///   reuse rate / CI-exploited fraction, and the per-window rows with
///   their content-addressed checkpoint ids. Every v6 key is
///   unchanged, so v6 consumers can read v7 documents.
pub const SCHEMA_VERSION: u32 = 7;

/// A mean with its 95% confidence half-width over `n` samples: one
/// `{n, mean, half_width}` estimate of the `sampling` object.
///
/// [`rel_error`](Estimate::rel_error) and
/// [`contains`](Estimate::contains) are the one accuracy rule a sampled
/// estimate is judged by against a full detailed run (the
/// `exp_sampling` gate and `cfir report sampling` both use them).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Number of samples (windows).
    pub n: usize,
    /// Sample mean (0 when `n == 0`).
    pub mean: f64,
    /// Half-width of the 95% CI (0 when `n < 2`: no bound exists).
    pub half_width: f64,
}

impl Estimate {
    /// Read an estimate back from its `{n, mean, half_width}` object;
    /// a missing or mistyped field reads as 0.
    pub fn from_json(v: &JsonValue) -> Estimate {
        let f = |k: &str| v.get(k).and_then(|x| x.as_f64()).unwrap_or(0.0);
        Estimate {
            n: v.get("n").and_then(|x| x.as_u64()).unwrap_or(0) as usize,
            mean: f("mean"),
            half_width: f("half_width"),
        }
    }

    /// Lower CI bound.
    pub fn lo(&self) -> f64 {
        self.mean - self.half_width
    }

    /// Upper CI bound.
    pub fn hi(&self) -> f64 {
        self.mean + self.half_width
    }

    /// Whether `v` lies inside the interval. Always false when the
    /// estimate is not [`reliable`](Estimate::reliable) — an unbounded
    /// interval must not be mistaken for an all-covering one.
    pub fn contains(&self, v: f64) -> bool {
        self.reliable() && v >= self.lo() && v <= self.hi()
    }

    /// True when enough windows exist for the interval to mean
    /// anything (`n >= 2`).
    pub fn reliable(&self) -> bool {
        self.n >= 2
    }

    /// Relative error of the mean against a reference value; infinite
    /// when the reference is 0 and the mean is not.
    pub fn rel_error(&self, reference: f64) -> f64 {
        if reference == 0.0 {
            if self.mean == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (self.mean - reference).abs() / reference.abs()
        }
    }
}

/// One measured window of a sampled run.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowRow {
    /// Retired-instruction position of the checkpoint the window's
    /// pipeline started from (start of the warmup).
    pub start_inst: u64,
    /// Content id of that checkpoint.
    pub checkpoint_id: u64,
    /// Instructions committed inside the measured window.
    pub committed: u64,
    /// Cycles the measured window took.
    pub cycles: u64,
    /// Window IPC.
    pub ipc: f64,
    /// Window reuse rate (reused commits / commits).
    pub reuse_rate: f64,
    /// Window CI-exploited fraction (reused events / mispredictions).
    pub ci_exploited: f64,
}

/// A completed sampled run: per-window rows, per-metric estimates and
/// the summed measured-portion statistics. `cfir-sample` computes it
/// (and re-exports the type); [`SampledRun::snapshot_json`] writes it.
/// Plain data, so the dependency arrow stays sample → sim.
#[derive(Debug, Clone)]
pub struct SampledRun {
    /// Workload name.
    pub name: String,
    /// Sampling parameters the run used.
    pub period: u64,
    /// Warmup instructions per window.
    pub warmup: u64,
    /// Measured instructions per window.
    pub window: u64,
    /// Measured windows, in sampling order.
    pub windows: Vec<WindowRow>,
    /// Total functionally executed (and warmed) instructions.
    pub ff_insts: u64,
    /// Total instructions committed by the detailed pipeline
    /// (warmup + measured).
    pub detailed_insts: u64,
    /// Measured (post-warmup) detailed instructions only.
    pub measured_insts: u64,
    /// Whether the program halted within the sampled budget.
    pub halted: bool,
    /// IPC estimate across windows. Aggregated SMARTS-style: the
    /// per-window *CPI* values (a per-instruction quantity over
    /// equal-instruction windows) are averaged and the mean inverted —
    /// averaging IPC directly would overweight fast windows and bias
    /// the estimate high on phase-heterogeneous programs.
    pub ipc: Estimate,
    /// Reuse-rate estimate across windows.
    pub reuse_rate: Estimate,
    /// CI-exploited-fraction estimate across windows.
    pub ci_exploited: Estimate,
    /// Summed stats deltas of all measured windows (counters only;
    /// histograms / per-branch scorecards stay empty — the sampling
    /// object is the sampled run's headline payload).
    pub stats: SimStats,
}

impl SampledRun {
    /// Render the run as a schema-v7 snapshot document: the
    /// [`run_json`] keys of the summed window stats, then the
    /// `sampling` object.
    pub fn snapshot_json(&self, label: &str) -> String {
        let est = |w: &mut JsonWriter, key: &str, e: &Estimate| {
            w.key(key).begin_obj();
            w.field_u64("n", e.n as u64)
                .field_f64("mean", e.mean)
                .field_f64("half_width", e.half_width);
            w.end_obj();
        };
        let mut w = JsonWriter::new();
        w.begin_obj();
        write_run(&mut w, &self.name, label, &self.stats);
        w.key("sampling").begin_obj();
        w.field_u64("period", self.period)
            .field_u64("warmup", self.warmup)
            .field_u64("window", self.window)
            .field_u64("ff_insts", self.ff_insts)
            .field_u64("detailed_insts", self.detailed_insts)
            .field_bool("halted", self.halted);
        est(&mut w, "ipc", &self.ipc);
        est(&mut w, "reuse_rate", &self.reuse_rate);
        est(&mut w, "ci_exploited", &self.ci_exploited);
        w.key("windows").begin_arr();
        for win in &self.windows {
            w.begin_obj()
                .field_u64("start_inst", win.start_inst)
                .field_str("checkpoint", &format!("{:016x}", win.checkpoint_id))
                .field_u64("committed", win.committed)
                .field_u64("cycles", win.cycles)
                .field_f64("ipc", win.ipc)
                .field_f64("reuse_rate", win.reuse_rate)
                .field_f64("ci_exploited", win.ci_exploited)
                .end_obj();
        }
        w.end_arr();
        w.end_obj();
        w.end_obj();
        w.finish()
    }
}

fn write_hist(w: &mut JsonWriter, key: &str, h: &Hist) {
    w.key(key).begin_obj();
    w.field_u64("count", h.count())
        .field_u64("sum", h.sum())
        .field_u64("max", h.max())
        .field_f64("mean", h.mean())
        .field_u64("p50", h.p50())
        .field_u64("p90", h.p90())
        .field_u64("p99", h.p99());
    // Sparse buckets: `[bucket_lower_bound, count]` pairs.
    w.key("buckets").begin_arr();
    for (lo, n) in h.nonzero_buckets() {
        w.begin_arr().u64_val(lo).u64_val(n).end_arr();
    }
    w.end_arr();
    w.end_obj();
}

/// Render the run's statistics as a self-contained JSON document.
///
/// `name` is the workload, `label` the machine variant (mode). The
/// stall-breakdown invariant (buckets sum to `cycles × commit_width`)
/// has already been checked by `finalize_stats` when this is called
/// on a finished run. Sampled runs add their `sampling` object through
/// [`SampledRun::snapshot_json`].
pub fn run_json(name: &str, label: &str, stats: &SimStats) -> String {
    let mut w = JsonWriter::new();
    w.begin_obj();
    write_run(&mut w, name, label, stats);
    w.end_obj();
    w.finish()
}

/// Write every key of a run's document into the object `w` has open.
fn write_run(w: &mut JsonWriter, name: &str, label: &str, stats: &SimStats) {
    w.field_u64("schema_version", SCHEMA_VERSION as u64)
        .field_str("name", name)
        .field_str("mode", label)
        .field_u64("cycles", stats.cycles)
        .field_u64("committed", stats.committed)
        .field_f64("ipc", stats.ipc())
        .field_u64("committed_reuse", stats.committed_reuse)
        .field_f64("reuse_fraction", stats.reuse_fraction())
        .field_u64("branches", stats.branches)
        .field_u64("mispredicts", stats.mispredicts)
        .field_f64("mispredict_rate", stats.mispredict_rate())
        .field_u64("squashed", stats.squashed)
        .field_u64("fetched", stats.fetched)
        .field_u64("loads", stats.loads)
        .field_u64("stores", stats.stores)
        .field_u64("store_conflicts", stats.store_conflicts)
        .field_u64("vectorizations", stats.vectorizations)
        .field_u64("replicas_created", stats.replicas_created)
        .field_u64("replicas_executed", stats.replicas_executed)
        .field_u64("validation_failures", stats.validation_failures)
        .field_u64("commit_check_failures", stats.commit_check_failures)
        .field_u64("squash_reuse_hits", stats.squash_reuse_hits)
        .field_u64("specmem_copies", stats.specmem_copies)
        .field_f64("wrong_path_fraction", stats.wrong_path_fraction())
        .field_f64("avg_regs_in_use", stats.avg_regs_in_use())
        .field_u64("reg_high_water", stats.reg_high_water);

    // Lifecycle recorder bookkeeping (schema v4; zeros when the
    // per-instruction recorder was off).
    w.key("lifecycle").begin_obj();
    w.field_u64("records", stats.lifecycle_records)
        .field_u64("dropped", stats.lifecycle_dropped);
    w.end_obj();

    w.key("valfail_reasons").begin_obj();
    for why in crate::vec_engine::ValFail::ALL {
        w.field_u64(why.label(), stats.valfail_reasons[why as usize]);
    }
    w.end_obj();

    w.key("memory").begin_obj();
    w.field_u64("l1d_accesses", stats.l1d_accesses)
        .field_u64("l1d_misses", stats.l1d_misses)
        .field_u64("l1d_writebacks", stats.l1d_writebacks)
        .field_u64("l1i_accesses", stats.l1i_accesses)
        .field_u64("l1i_misses", stats.l1i_misses)
        .field_u64("l2_accesses", stats.l2_accesses)
        .field_u64("l2_misses", stats.l2_misses)
        .field_u64("l3_accesses", stats.l3_accesses)
        .field_u64("l3_misses", stats.l3_misses)
        .field_u64("mem_accesses", stats.mem_accesses);
    w.end_obj();

    // The CPI stack. Every cause is present (zero or not) so
    // downstream consumers can rely on the key set.
    w.key("stall").begin_obj();
    for cause in ALL_CAUSES {
        w.field_u64(cause.key(), stats.stall.get(cause));
    }
    w.end_obj();

    w.key("histograms").begin_obj();
    write_hist(w, "load_to_use", &stats.h_load_to_use);
    write_hist(w, "branch_resolve", &stats.h_branch_resolve);
    write_hist(w, "reuse_wait", &stats.h_reuse_wait);
    write_hist(w, "flush_recovery", &stats.h_flush_recovery);
    w.end_obj();

    w.key("intervals").begin_arr();
    for s in &stats.intervals {
        w.begin_obj()
            .field_u64("cycle", s.cycle)
            .field_u64("committed", s.committed)
            .field_u64("committed_reuse", s.committed_reuse)
            .field_u64("branches", s.branches)
            .field_u64("mispredicts", s.mispredicts)
            .field_f64("interval_ipc", s.interval_ipc)
            .field_f64("interval_mispredict_rate", s.interval_mispredict_rate)
            .field_f64("interval_reuse_rate", s.interval_reuse_rate)
            .field_u64("rob_occupancy", s.rob_occupancy as u64)
            .field_u64("regs_in_use", s.regs_in_use as u64)
            .end_obj();
    }
    w.end_arr();

    // Per-static-branch scorecard (schema v2). Rows sorted by
    // descending mispredictions; the `unattributed` bucket catches
    // mechanism work that carried no event id (e.g. `vect` mode) so
    // `totals` + `unattributed` reconcile with the global counters.
    let prof = &stats.branch_prof;
    w.key("branch_prof").begin_obj();
    w.field_u64("static_branches", prof.len() as u64)
        .field_f64("ci_exploited_fraction", prof.ci_exploited_fraction());
    write_score_fields(w.key("totals").begin_obj(), &prof.totals()).end_obj();
    write_score_fields(w.key("unattributed").begin_obj(), &prof.unattributed).end_obj();
    w.key("branches").begin_arr();
    for (pc, score) in prof.sorted() {
        w.begin_obj().field_u64("pc", pc as u64);
        write_score_fields(w, &score);
        w.field_f64("ci_exploited_rate", score.ci_exploited_rate());
        // Static oracle truth (schema v3); keys omitted when the
        // analyzer had nothing for this PC (e.g. synthetic tests).
        if let Some(truth) = prof.static_truth(pc) {
            w.field_str("hammock_class", truth.class);
            if let Some(rcp) = truth.rcp {
                w.field_u64("static_rcp", rcp as u64);
            }
        }
        w.end_obj();
    }
    w.end_arr();
    w.end_obj();

    // Static-vs-dynamic oracle summary (schema v3): runtime agreement
    // of the configured RCP detector with the post-dominator truth,
    // plus the end-of-run MBS tag cross-check.
    let (rcp_checked, rcp_agreed) = prof.rcp_totals();
    w.key("oracle").begin_obj();
    w.field_u64("rcp_checked", rcp_checked)
        .field_u64("rcp_agreed", rcp_agreed)
        .field_f64("rcp_agreement", prof.rcp_agreement())
        .field_u64("mbs_checked", stats.oracle_mbs_checked)
        .field_u64("mbs_nonbranch", stats.oracle_mbs_nonbranch);
    w.end_obj();

    // Static-dataflow-vs-runtime oracle summary (schema v6): how often
    // the CIDI/CIDD classification predicted the actual reuse outcome.
    // Outcomes with no event attribution or no static verdict land in
    // `unclassified` and are excluded from the agreement denominator.
    let (cidi_checked, cidi_agreed) = prof.cidi_totals();
    w.key("dataflow_oracle").begin_obj();
    w.field_u64("cidi_checked", cidi_checked)
        .field_u64("cidi_agreed", cidi_agreed)
        .field_f64("cidi_agreement", prof.cidi_agreement())
        .field_u64("cidi_predicted_failures", prof.cidi_pred_failures)
        .field_u64("cidd_clean_reuses", prof.cidd_clean_reuses)
        .field_u64("mechanism_repairs", prof.cidi_mechanism_repairs)
        .field_u64("unclassified", prof.cidi_unclassified);
    w.end_obj();

    // Bottleneck analysis (schema v5). The hierarchical CPI stack is
    // always computable (it regroups the stall breakdown); the
    // critical path and what-if projections need the whole-run
    // lifecycle DAG and are omitted when it was not recorded.
    let cpi = CpiStack::from_breakdown(&stats.stall, stats.committed_reuse);
    w.key("bottleneck").begin_obj();
    w.key("cpi_stack").begin_obj();
    for (key, slots) in cpi.iter() {
        w.field_u64(key, slots);
    }
    w.end_obj();
    if let Some(b) = &stats.bottleneck {
        w.key("critical_path").begin_obj();
        w.field_u64("span", b.crit.span)
            .field_u64("start_cycle", b.crit.start_cycle)
            .field_u64("steps", b.crit.steps as u64);
        w.key("classes").begin_obj();
        for class in ALL_CLASSES {
            w.field_u64(class.key(), b.crit.classes[class as usize]);
        }
        w.end_obj();
        w.key("edges").begin_arr();
        for seg in &b.crit.top {
            w.begin_obj()
                .field_u64("pc", seg.pc)
                .field_str("class", seg.class.key())
                .field_u64("cycles", seg.cycles)
                .end_obj();
        }
        w.end_arr();
        w.key("branches").begin_arr();
        for &(pc, cycles) in &b.crit.branch_refetch {
            w.begin_obj()
                .field_u64("pc", pc)
                .field_u64("refetch_cycles", cycles)
                .end_obj();
        }
        w.end_arr();
        w.end_obj();
        w.key("whatif").begin_arr();
        for row in &b.whatif {
            let speedup = if row.projected_cycles == 0 {
                1.0
            } else {
                stats.cycles as f64 / row.projected_cycles as f64
            };
            w.begin_obj()
                .field_str("scenario", row.scenario)
                .field_u64("projected_cycles", row.projected_cycles)
                .field_f64("speedup", speedup)
                .end_obj();
        }
        w.end_arr();
    }
    w.end_obj();
}

/// Emit the counter fields of one [`BranchScore`] into the object the
/// writer currently has open.
fn write_score_fields<'a>(w: &'a mut JsonWriter, s: &BranchScore) -> &'a mut JsonWriter {
    w.field_u64("executed", s.executed)
        .field_u64("mispredicts", s.mispredicts)
        .field_u64("events", s.events)
        .field_u64("events_reused", s.events_reused)
        .field_u64("events_selected", s.events_selected)
        .field_u64("replicas_created", s.replicas_created)
        .field_u64("replicas_executed", s.replicas_executed)
        .field_u64("replicas_wasted", s.replicas_wasted())
        .field_u64("validations", s.validations)
        .field_u64("reuse_commits", s.reuse_commits)
        .field_u64("cycles_saved", s.cycles_saved)
        .field_u64("rcp_checks", s.rcp_checks)
        .field_u64("rcp_agree", s.rcp_agree)
        .field_u64("cidi_checks", s.cidi_checks)
        .field_u64("cidi_agree", s.cidi_agree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfir_obs::json;

    #[test]
    fn snapshot_round_trips_through_the_parser() {
        let mut stats = SimStats {
            cycles: 1000,
            committed: 2500,
            committed_reuse: 300,
            branches: 200,
            mispredicts: 20,
            loads: 700,
            ..Default::default()
        };
        stats.h_load_to_use.record(1);
        stats.h_load_to_use.record(14);
        stats.valfail_reasons = [1, 2, 3, 4, 5];
        stats.stall.charge(cfir_obs::StallCause::Useful, 2500);
        stats.stall.charge(cfir_obs::StallCause::FetchStarved, 5500);
        stats.intervals.push(crate::stats::IntervalSample {
            cycle: 500,
            committed: 1200,
            committed_reuse: 100,
            branches: 90,
            mispredicts: 9,
            interval_ipc: 2.4,
            interval_mispredict_rate: 0.1,
            interval_reuse_rate: 0.08,
            rob_occupancy: 120,
            regs_in_use: 64,
        });
        stats.branch_prof.note_branch(0x40, true);
        stats.branch_prof.note_reuse_commit(None, 2);
        stats.branch_prof.set_static_truth(
            0x40,
            crate::prof::StaticTruth {
                rcp: Some(0x44),
                class: "ifthen",
            },
        );
        stats.branch_prof.note_rcp_check(0x40, true);
        stats.branch_prof.note_rcp_check(0x40, false);
        // Schema v6: a CIDI verdict scored against runtime outcomes.
        let ev = stats.branch_prof.open_event(0x40);
        stats.branch_prof.set_cidi_verdict(0x40, 0x44, "cidi");
        stats.branch_prof.note_cidi_outcome(Some(ev), 0x44, true);
        stats.branch_prof.note_cidi_outcome(Some(ev), 0x44, false);
        stats.branch_prof.note_cidi_outcome(None, 0x44, true);
        stats.branch_prof.note_cidi_mechanism_repair(Some(ev), 0x44);
        stats.oracle_mbs_checked = 7;
        stats.lifecycle_records = 42;
        stats.lifecycle_dropped = 2;

        // Attach a bottleneck report so the v5 object is exercised.
        stats.bottleneck = Some(cfir_obs::BottleneckReport {
            crit: cfir_obs::CritPath {
                span: 1000,
                start_cycle: 0,
                classes: {
                    let mut c = [0u64; cfir_obs::critpath::NUM_CLASSES];
                    c[cfir_obs::EdgeClass::CacheMem as usize] = 600;
                    c[cfir_obs::EdgeClass::MispredictRefetch as usize] = 400;
                    c
                },
                top: vec![cfir_obs::PathSeg {
                    pc: 0x40,
                    class: cfir_obs::EdgeClass::CacheMem,
                    cycles: 600,
                }],
                branch_refetch: vec![(0x40, 400)],
                steps: 5,
            },
            whatif: vec![cfir_obs::WhatIfRow {
                scenario: "perfect_bp",
                projected_cycles: 500,
            }],
        });

        let text = run_json("bzip2 \"quoted\"", "ci", &stats);
        let v = json::parse(&text).expect("snapshot parses");
        assert_eq!(v.get("schema_version").unwrap().as_u64(), Some(7));
        // A plain run carries no `sampling` object (the v7 key is
        // additive and sampled-run only).
        assert!(v.get("sampling").is_none());
        assert_eq!(v.get("name").unwrap().as_str(), Some("bzip2 \"quoted\""));
        assert_eq!(v.get("mode").unwrap().as_str(), Some("ci"));
        assert_eq!(v.get("cycles").unwrap().as_u64(), Some(1000));
        assert!((v.get("ipc").unwrap().as_f64().unwrap() - 2.5).abs() < 1e-12);
        assert!((v.get("reuse_fraction").unwrap().as_f64().unwrap() - 0.12).abs() < 1e-12);
        let vf = v.get("valfail_reasons").unwrap();
        assert_eq!(vf.get("inst_mismatch").unwrap().as_u64(), Some(1));
        assert_eq!(vf.get("seq_mismatch").unwrap().as_u64(), Some(5));
        let stall = v.get("stall").unwrap();
        assert_eq!(stall.get("useful").unwrap().as_u64(), Some(2500));
        assert_eq!(stall.get("fetch_starved").unwrap().as_u64(), Some(5500));
        let h = v.get("histograms").unwrap().get("load_to_use").unwrap();
        assert_eq!(h.get("count").unwrap().as_u64(), Some(2));
        assert_eq!(h.get("buckets").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(h.get("p50").unwrap().as_u64(), Some(1));
        assert_eq!(h.get("p99").unwrap().as_u64(), Some(14));
        let iv = v.get("intervals").unwrap().as_arr().unwrap();
        assert_eq!(iv[0].get("cycle").unwrap().as_u64(), Some(500));
        assert_eq!(iv[0].get("mispredicts").unwrap().as_u64(), Some(9));
        assert_eq!(iv[0].get("rob_occupancy").unwrap().as_u64(), Some(120));
        let bp = v.get("branch_prof").unwrap();
        assert_eq!(bp.get("static_branches").unwrap().as_u64(), Some(1));
        let rows = bp.get("branches").unwrap().as_arr().unwrap();
        assert_eq!(rows[0].get("pc").unwrap().as_u64(), Some(0x40));
        assert_eq!(rows[0].get("mispredicts").unwrap().as_u64(), Some(1));
        let un = bp.get("unattributed").unwrap();
        assert_eq!(un.get("reuse_commits").unwrap().as_u64(), Some(1));
        assert_eq!(un.get("cycles_saved").unwrap().as_u64(), Some(2));
        // Schema v3: per-branch static truth + oracle summary.
        assert_eq!(
            rows[0].get("hammock_class").unwrap().as_str(),
            Some("ifthen")
        );
        assert_eq!(rows[0].get("static_rcp").unwrap().as_u64(), Some(0x44));
        assert_eq!(rows[0].get("rcp_checks").unwrap().as_u64(), Some(2));
        assert_eq!(rows[0].get("rcp_agree").unwrap().as_u64(), Some(1));
        let oracle = v.get("oracle").unwrap();
        assert_eq!(oracle.get("rcp_checked").unwrap().as_u64(), Some(2));
        assert_eq!(oracle.get("rcp_agreed").unwrap().as_u64(), Some(1));
        assert!((oracle.get("rcp_agreement").unwrap().as_f64().unwrap() - 0.5).abs() < 1e-12);
        assert_eq!(oracle.get("mbs_checked").unwrap().as_u64(), Some(7));
        assert_eq!(oracle.get("mbs_nonbranch").unwrap().as_u64(), Some(0));
        // Schema v6: per-branch CIDI counters + the dataflow oracle.
        assert_eq!(rows[0].get("cidi_checks").unwrap().as_u64(), Some(2));
        assert_eq!(rows[0].get("cidi_agree").unwrap().as_u64(), Some(1));
        let dorc = v.get("dataflow_oracle").unwrap();
        assert_eq!(dorc.get("cidi_checked").unwrap().as_u64(), Some(2));
        assert_eq!(dorc.get("cidi_agreed").unwrap().as_u64(), Some(1));
        assert!((dorc.get("cidi_agreement").unwrap().as_f64().unwrap() - 0.5).abs() < 1e-12);
        assert_eq!(
            dorc.get("cidi_predicted_failures").unwrap().as_u64(),
            Some(1)
        );
        assert_eq!(dorc.get("cidd_clean_reuses").unwrap().as_u64(), Some(0));
        assert_eq!(dorc.get("mechanism_repairs").unwrap().as_u64(), Some(1));
        assert_eq!(dorc.get("unclassified").unwrap().as_u64(), Some(1));
        // Schema v4: lifecycle recorder bookkeeping.
        let lc = v.get("lifecycle").unwrap();
        assert_eq!(lc.get("records").unwrap().as_u64(), Some(42));
        assert_eq!(lc.get("dropped").unwrap().as_u64(), Some(2));
        // Schema v5: the bottleneck object.
        let b = v.get("bottleneck").unwrap();
        let cpi = b.get("cpi_stack").unwrap();
        assert_eq!(cpi.get("reuse_recovered").unwrap().as_u64(), Some(300));
        assert_eq!(cpi.get("base").unwrap().as_u64(), Some(2200));
        assert_eq!(cpi.get("frontend").unwrap().as_u64(), Some(5500));
        let total: u64 = cfir_obs::critpath::CPI_GROUPS
            .iter()
            .map(|g| cpi.get(g).unwrap().as_u64().unwrap())
            .sum();
        assert_eq!(total, 8000, "groups preserve the slot invariant");
        let cp = b.get("critical_path").unwrap();
        assert_eq!(cp.get("span").unwrap().as_u64(), Some(1000));
        let classes = cp.get("classes").unwrap();
        assert_eq!(classes.get("cache_mem").unwrap().as_u64(), Some(600));
        let edges = cp.get("edges").unwrap().as_arr().unwrap();
        assert_eq!(edges[0].get("pc").unwrap().as_u64(), Some(0x40));
        assert_eq!(edges[0].get("class").unwrap().as_str(), Some("cache_mem"));
        let brs = cp.get("branches").unwrap().as_arr().unwrap();
        assert_eq!(brs[0].get("refetch_cycles").unwrap().as_u64(), Some(400));
        let wi = b.get("whatif").unwrap().as_arr().unwrap();
        assert_eq!(wi[0].get("scenario").unwrap().as_str(), Some("perfect_bp"));
        assert_eq!(wi[0].get("projected_cycles").unwrap().as_u64(), Some(500));
        assert!((wi[0].get("speedup").unwrap().as_f64().unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_object_round_trips() {
        let est = |n, mean, half_width| Estimate {
            n,
            mean,
            half_width,
        };
        let run = SampledRun {
            name: "gzip".into(),
            period: 50_000,
            warmup: 2_000,
            window: 3_000,
            windows: vec![WindowRow {
                start_inst: 45_000,
                checkpoint_id: 0xdead_beef_0000_0001,
                committed: 3_000,
                cycles: 1_250,
                ipc: 2.4,
                reuse_rate: 0.11,
                ci_exploited: 0.30,
            }],
            ff_insts: 900_000,
            detailed_insts: 100_000,
            measured_insts: 3_000,
            halted: false,
            ipc: est(20, 2.41, 0.05),
            reuse_rate: est(20, 0.12, 0.01),
            ci_exploited: est(20, 0.31, 0.03),
            stats: SimStats::default(),
        };
        let text = run.snapshot_json("scal");
        // Everything before the `sampling` object is the plain document.
        let plain = run_json("gzip", "scal", &SimStats::default());
        assert!(text.starts_with(plain.strip_suffix('}').unwrap()));
        let v = json::parse(&text).expect("sampled snapshot parses");
        assert_eq!(v.get("schema_version").unwrap().as_u64(), Some(7));
        let s = v.get("sampling").unwrap();
        assert_eq!(s.get("period").unwrap().as_u64(), Some(50_000));
        assert_eq!(s.get("warmup").unwrap().as_u64(), Some(2_000));
        assert_eq!(s.get("window").unwrap().as_u64(), Some(3_000));
        assert_eq!(s.get("ff_insts").unwrap().as_u64(), Some(900_000));
        assert_eq!(s.get("halted"), Some(&json::JsonValue::Bool(false)));
        for (key, e) in [
            ("ipc", run.ipc),
            ("reuse_rate", run.reuse_rate),
            ("ci_exploited", run.ci_exploited),
        ] {
            assert_eq!(Estimate::from_json(s.get(key).unwrap()), e);
        }
        let wins = s.get("windows").unwrap().as_arr().unwrap();
        assert_eq!(wins.len(), 1);
        assert_eq!(wins[0].get("start_inst").unwrap().as_u64(), Some(45_000));
        assert_eq!(
            wins[0].get("checkpoint").unwrap().as_str(),
            Some("deadbeef00000001")
        );
        assert_eq!(wins[0].get("cycles").unwrap().as_u64(), Some(1_250));
    }

    #[test]
    fn accuracy_rule_edge_cases() {
        let e = |n, mean, half_width| Estimate {
            n,
            mean,
            half_width,
        };
        assert!((e(2, 2.0, 0.0).rel_error(2.5) - 0.2).abs() < 1e-12);
        // A zero reference bounds nothing unless the mean is zero too.
        assert_eq!(e(2, 0.1, 0.0).rel_error(0.0), f64::INFINITY);
        assert_eq!(e(0, 0.0, 0.0).rel_error(0.0), 0.0);
        // Coverage is inclusive at both bounds.
        assert!(e(5, 1.0, 0.5).contains(0.5) && e(5, 1.0, 0.5).contains(1.5));
    }

    #[test]
    fn cpi_stack_present_without_lifecycle_critical_path_absent() {
        let text = run_json("x", "scal", &SimStats::default());
        let v = json::parse(&text).unwrap();
        let b = v.get("bottleneck").unwrap();
        assert!(b.get("cpi_stack").is_some());
        assert!(b.get("critical_path").is_none());
        assert!(b.get("whatif").is_none());
    }

    #[test]
    fn static_truth_keys_omitted_when_unseeded() {
        let mut stats = SimStats::default();
        stats.branch_prof.note_branch(8, true);
        let v = json::parse(&run_json("x", "ci", &stats)).unwrap();
        let rows = v
            .get("branch_prof")
            .unwrap()
            .get("branches")
            .unwrap()
            .as_arr()
            .unwrap();
        assert!(rows[0].get("hammock_class").is_none());
        assert!(rows[0].get("static_rcp").is_none());
    }

    #[test]
    fn v1_documents_still_parse_and_expose_v1_keys() {
        // A committed v1 snapshot fragment (pre-percentile histograms,
        // short interval rows, no branch_prof): the parser and the v1
        // key set must keep working so old baselines stay readable.
        let v1 = r#"{
            "schema_version": 1,
            "name": "bzip2", "mode": "ci",
            "cycles": 1000, "committed": 2500, "ipc": 2.5,
            "committed_reuse": 300, "reuse_fraction": 0.12,
            "histograms": {
                "load_to_use": {"count": 2, "sum": 15, "max": 14,
                                 "mean": 7.5, "buckets": [[1, 1], [8, 1]]}
            },
            "intervals": [
                {"cycle": 500, "committed": 1200,
                 "committed_reuse": 100, "interval_ipc": 2.4}
            ]
        }"#;
        let v = json::parse(v1).expect("v1 snapshot parses");
        assert_eq!(v.get("schema_version").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("cycles").unwrap().as_u64(), Some(1000));
        let h = v.get("histograms").unwrap().get("load_to_use").unwrap();
        assert_eq!(h.get("count").unwrap().as_u64(), Some(2));
        assert!(h.get("p50").is_none());
        let iv = v.get("intervals").unwrap().as_arr().unwrap();
        assert_eq!(iv[0].get("cycle").unwrap().as_u64(), Some(500));
        assert!(iv[0].get("rob_occupancy").is_none());
    }

    #[test]
    fn all_stall_causes_are_present_even_when_zero() {
        let text = run_json("x", "scal", &SimStats::default());
        let v = json::parse(&text).unwrap();
        let stall = v.get("stall").unwrap();
        for cause in cfir_obs::stall::ALL_CAUSES {
            assert!(
                stall.get(cause.key()).is_some(),
                "missing stall key {}",
                cause.key()
            );
        }
    }
}
