//! Snapshot reading, diffing and regression gating for `cfir report`.
//!
//! Works on the versioned JSON documents the simulator emits: either a
//! single-run snapshot ([`cfir_sim::run_json`]) or a bundle with a
//! `"runs"` array (what `cfir suite --emit-json` writes for every
//! experiment). Runs are matched across
//! documents by `(name, mode)`, compared metric by metric, and the
//! *gating* metrics (IPC, reuse fraction, CI-exploited fraction) decide
//! whether the new document regressed beyond a relative tolerance —
//! the contract the CI perf gate enforces against
//! `results/baselines/`.

use cfir_obs::json::{self, JsonValue};
use cfir_sim::Estimate;
use std::fmt::Write as _;

/// How a metric's movement is judged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Dropping below the baseline is a regression (e.g. IPC).
    HigherIsBetter,
    /// Rising above the baseline is a regression (e.g. cycles).
    LowerIsBetter,
    /// Reported in the diff but never gates (e.g. committed count).
    Info,
}

/// One comparable metric of a run snapshot.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// JSON key (top-level, or inside `branch_prof` — see
    /// [`extract_runs`]).
    pub key: &'static str,
    /// Direction of goodness.
    pub direction: Direction,
    /// Whether a move beyond tolerance fails the check.
    pub gating: bool,
}

/// The metrics `cfir report diff` compares, in display order. The
/// gating set is the ISSUE's contract: IPC and the two reuse rates.
pub const METRICS: &[Metric] = &[
    Metric {
        key: "ipc",
        direction: Direction::HigherIsBetter,
        gating: true,
    },
    Metric {
        key: "reuse_fraction",
        direction: Direction::HigherIsBetter,
        gating: true,
    },
    Metric {
        key: "ci_exploited_fraction",
        direction: Direction::HigherIsBetter,
        gating: true,
    },
    Metric {
        key: "mispredict_rate",
        direction: Direction::LowerIsBetter,
        gating: false,
    },
    Metric {
        key: "wrong_path_fraction",
        direction: Direction::LowerIsBetter,
        gating: false,
    },
    Metric {
        key: "cycles",
        direction: Direction::LowerIsBetter,
        gating: false,
    },
    Metric {
        key: "committed",
        direction: Direction::Info,
        gating: false,
    },
];

/// The metrics of one run, extracted from a snapshot document.
/// `values[i]` corresponds to `METRICS[i]`; `None` when the document
/// does not carry the key (e.g. schema-v1 snapshots have no
/// `branch_prof`).
#[derive(Debug, Clone)]
pub struct RunMetrics {
    /// Workload name.
    pub name: String,
    /// Machine-variant label.
    pub mode: String,
    /// One slot per [`METRICS`] entry.
    pub values: Vec<Option<f64>>,
}

impl RunMetrics {
    fn id(&self) -> (String, String) {
        (self.name.clone(), self.mode.clone())
    }
}

/// Parse a snapshot document's text, rejecting schemas newer than this
/// build understands (older ones — v1 — are fine: v2 is additive).
pub fn parse_doc(text: &str) -> Result<JsonValue, String> {
    let v = json::parse(text)?;
    match v.get("schema_version").and_then(|x| x.as_u64()) {
        None => Err("document has no schema_version".into()),
        Some(n) if n > cfir_sim::SCHEMA_VERSION as u64 => Err(format!(
            "schema_version {n} is newer than this tool understands ({})",
            cfir_sim::SCHEMA_VERSION
        )),
        Some(_) => Ok(v),
    }
}

fn extract_one(run: &JsonValue) -> Option<RunMetrics> {
    let name = run.get("name")?.as_str()?.to_string();
    let mode = run.get("mode")?.as_str()?.to_string();
    let values = METRICS
        .iter()
        .map(|m| match m.key {
            "ci_exploited_fraction" => run
                .get("branch_prof")
                .and_then(|bp| bp.get(m.key))
                .and_then(|x| x.as_f64()),
            k => run.get(k).and_then(|x| x.as_f64()),
        })
        .collect();
    Some(RunMetrics { name, mode, values })
}

/// All runs in a document: the `"runs"` array of a bundle, or the
/// document itself when it is a single-run snapshot.
pub fn extract_runs(doc: &JsonValue) -> Result<Vec<RunMetrics>, String> {
    if let Some(runs) = doc.get("runs").and_then(|r| r.as_arr()) {
        let out: Vec<RunMetrics> = runs.iter().filter_map(extract_one).collect();
        if out.is_empty() {
            return Err("bundle has an empty or malformed runs array".into());
        }
        return Ok(out);
    }
    extract_one(doc)
        .map(|r| vec![r])
        .ok_or_else(|| "document is neither a run snapshot nor a bundle with runs".into())
}

/// Parse a tolerance argument: `"2%"` → `0.02`, `"0.02"` → `0.02`.
pub fn parse_tolerance(s: &str) -> Option<f64> {
    let (num, is_pct) = match s.strip_suffix('%') {
        Some(n) => (n, true),
        None => (s, false),
    };
    let v: f64 = num.trim().parse().ok()?;
    let v = if is_pct { v / 100.0 } else { v };
    (v >= 0.0).then_some(v)
}

/// Result of diffing two documents.
#[derive(Debug)]
pub struct DiffOutcome {
    /// Human-readable per-run, per-metric delta report.
    pub report: String,
    /// Whether any gating metric regressed beyond tolerance (or a
    /// baseline run disappeared).
    pub regressed: bool,
}

fn fmt_val(v: Option<f64>) -> String {
    match v {
        Some(x) if x == x.trunc() && x.abs() < 1e15 => format!("{x}"),
        Some(x) => format!("{x:.4}"),
        None => "-".into(),
    }
}

/// The `"table"` of a bundle as `(title, rows)`, each row joined
/// header-to-cells, for textual comparison of table-only documents
/// (e.g. the Table 1 configuration snapshot).
fn extract_table(doc: &JsonValue) -> Option<(String, Vec<Vec<String>>)> {
    let title = doc.get("title")?.as_str()?.to_string();
    let rows = doc
        .get("table")?
        .get("rows")?
        .as_arr()?
        .iter()
        .map(|r| {
            r.as_arr()
                .map(|cells| {
                    cells
                        .iter()
                        .filter_map(|c| c.as_str().map(str::to_string))
                        .collect()
                })
                .unwrap_or_default()
        })
        .collect();
    Some((title, rows))
}

/// Textual diff of two table-only documents: any changed, missing or
/// reordered baseline row is a regression (configuration drift).
fn diff_tables(old: &JsonValue, new: &JsonValue) -> Result<DiffOutcome, String> {
    let (ot, orows) = extract_table(old).ok_or("old document has no table")?;
    let (_, nrows) = extract_table(new).ok_or("new document has no table")?;
    let mut report = String::new();
    let mut regressed = false;
    let _ = writeln!(report, "{ot}: comparing {} table rows", orows.len());
    for (i, orow) in orows.iter().enumerate() {
        match nrows.get(i) {
            Some(nrow) if nrow == orow => {}
            Some(nrow) => {
                let _ = writeln!(
                    report,
                    "  row {i}: {:?} -> {:?}  CHANGED",
                    orow.join(" | "),
                    nrow.join(" | ")
                );
                regressed = true;
            }
            None => {
                let _ = writeln!(report, "  row {i}: {:?} MISSING", orow.join(" | "));
                regressed = true;
            }
        }
    }
    for (i, nrow) in nrows.iter().enumerate().skip(orows.len()) {
        let _ = writeln!(report, "  row {i}: {:?} added", nrow.join(" | "));
    }
    if !regressed {
        let _ = writeln!(report, "  all rows identical");
    }
    Ok(DiffOutcome { report, regressed })
}

/// Compare `new` against the `old` baseline. A gating metric regresses
/// when it moves in the bad direction by more than `tolerance`
/// (relative to the baseline value). Non-gating metrics are reported
/// but never fail the check. Documents that carry no runs but do carry
/// a rendered table (e.g. the Table 1 configuration dump) are compared
/// textually instead.
pub fn diff(old: &JsonValue, new: &JsonValue, tolerance: f64) -> Result<DiffOutcome, String> {
    let (old_runs, new_runs) = match (extract_runs(old), extract_runs(new)) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(_), Err(_)) if old.get("table").is_some() && new.get("table").is_some() => {
            return diff_tables(old, new);
        }
        (Err(e), _) | (_, Err(e)) => return Err(e),
    };
    let mut report = String::new();
    let mut regressed = false;

    for o in &old_runs {
        let Some(n) = new_runs.iter().find(|n| n.id() == o.id()) else {
            let _ = writeln!(
                report,
                "{}/{}: MISSING from new document (regression)",
                o.name, o.mode
            );
            regressed = true;
            continue;
        };
        let _ = writeln!(report, "{}/{}:", o.name, o.mode);
        for (i, m) in METRICS.iter().enumerate() {
            let (ov, nv) = (o.values[i], n.values[i]);
            let (Some(ov), Some(nv)) = (ov, nv) else {
                // Absent on either side (e.g. v1 baseline without
                // branch_prof): informational, never a regression.
                let _ = writeln!(
                    report,
                    "  {:24} {:>12} -> {:>12}",
                    m.key,
                    fmt_val(o.values[i]),
                    fmt_val(n.values[i])
                );
                continue;
            };
            let delta = nv - ov;
            let rel = if ov.abs() > 1e-12 { delta / ov } else { 0.0 };
            let bad = match m.direction {
                Direction::HigherIsBetter => -rel,
                Direction::LowerIsBetter => rel,
                Direction::Info => 0.0,
            };
            let is_regression = m.gating && bad > tolerance;
            regressed |= is_regression;
            let _ = writeln!(
                report,
                "  {:24} {:>12} -> {:>12}  ({:+.2}%){}",
                m.key,
                fmt_val(Some(ov)),
                fmt_val(Some(nv)),
                rel * 100.0,
                if is_regression { "  REGRESSION" } else { "" }
            );
        }
    }
    for n in &new_runs {
        if !old_runs.iter().any(|o| o.id() == n.id()) {
            let _ = writeln!(report, "{}/{}: new run (no baseline)", n.name, n.mode);
        }
    }
    Ok(DiffOutcome { report, regressed })
}

/// Total `lifecycle.dropped` across every run of a document. A nonzero
/// count means the per-instruction recorder overflowed its ring and
/// the bottleneck DAG (critical path, what-if projections) is built
/// from an incomplete record set — `cfir report` warns loudly, and
/// `check` treats it as a failure.
pub fn lifecycle_dropped(doc: &JsonValue) -> u64 {
    let runs: Vec<&JsonValue> = match doc.get("runs").and_then(|r| r.as_arr()) {
        Some(rs) => rs.iter().collect(),
        None => vec![doc],
    };
    runs.iter()
        .filter_map(|r| r.get("lifecycle"))
        .filter_map(|lc| lc.get("dropped"))
        .filter_map(|d| d.as_u64())
        .sum()
}

const BAR_COLS: f64 = 40.0;

fn bar(frac: f64) -> String {
    let n = (frac.clamp(0.0, 1.0) * BAR_COLS).round() as usize;
    "#".repeat(n)
}

/// Render one run's `bottleneck` object: the hierarchical CPI stack as
/// bars, the critical-path class attribution and top edges, and the
/// what-if speed-limit table.
fn render_bottleneck_run(out: &mut String, run: &JsonValue) {
    let s = |k: &str| run.get(k).and_then(|x| x.as_str()).unwrap_or("?");
    let _ = writeln!(out, "\n{} / {}", s("name"), s("mode"));
    let Some(b) = run.get("bottleneck") else {
        let _ = writeln!(out, "  (no bottleneck object: pre-v5 snapshot)");
        return;
    };
    if let Some(stack) = b.get("cpi_stack") {
        let total: u64 = cfir_obs::critpath::CPI_GROUPS
            .iter()
            .filter_map(|k| stack.get(k).and_then(|x| x.as_u64()))
            .sum();
        let _ = writeln!(out, "  CPI stack ({total} commit slots):");
        for key in cfir_obs::critpath::CPI_GROUPS {
            let n = stack.get(key).and_then(|x| x.as_u64()).unwrap_or(0);
            let frac = if total > 0 {
                n as f64 / total as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "    {key:16} {:>10}  {:>6.2}%  {}",
                n,
                frac * 100.0,
                bar(frac)
            );
        }
    }
    if let Some(cp) = b.get("critical_path") {
        let g = |k: &str| cp.get(k).and_then(|x| x.as_u64()).unwrap_or(0);
        let span = g("span");
        let _ = writeln!(
            out,
            "  critical path: span={span} cycles (start {}, {} steps)",
            g("start_cycle"),
            g("steps")
        );
        if let Some(classes) = cp.get("classes") {
            let mut rows: Vec<(&str, u64)> = cfir_obs::critpath::ALL_CLASSES
                .iter()
                .map(|c| c.key())
                .filter_map(|k| {
                    classes
                        .get(k)
                        .and_then(|x| x.as_u64())
                        .filter(|&n| n > 0)
                        .map(|n| (k, n))
                })
                .collect();
            rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
            for (k, n) in rows {
                let frac = if span > 0 {
                    n as f64 / span as f64
                } else {
                    0.0
                };
                let _ = writeln!(
                    out,
                    "    {k:20} {n:>10}  {:>6.2}%  {}",
                    frac * 100.0,
                    bar(frac)
                );
            }
        }
        if let Some(edges) = cp.get("edges").and_then(|e| e.as_arr()) {
            let _ = writeln!(out, "  top critical-path segments:");
            for e in edges.iter().take(10) {
                let gu = |k: &str| e.get(k).and_then(|x| x.as_u64()).unwrap_or(0);
                let _ = writeln!(
                    out,
                    "    pc {:>#8x}  {:20} {:>8} cycles",
                    gu("pc"),
                    e.get("class").and_then(|x| x.as_str()).unwrap_or("?"),
                    gu("cycles")
                );
            }
        }
        if let Some(brs) = cp.get("branches").and_then(|e| e.as_arr()) {
            if !brs.is_empty() {
                // Join against the PR-2 scorecard rows of the same run:
                // refetch cycles are the remaining per-branch headroom,
                // reuse commits / cycles saved what the CI mechanism
                // already recovered at that site.
                let scorecard = run
                    .get("branch_prof")
                    .and_then(|bp| bp.get("branches"))
                    .and_then(|b| b.as_arr());
                let prof = |pc: u64, key: &str| -> u64 {
                    scorecard
                        .and_then(|rows| {
                            rows.iter()
                                .find(|r| r.get("pc").and_then(|x| x.as_u64()) == Some(pc))
                        })
                        .and_then(|r| r.get(key))
                        .and_then(|x| x.as_u64())
                        .unwrap_or(0)
                };
                let _ = writeln!(
                    out,
                    "  per-branch headroom (critical-path refetch vs scorecard recovery):\n    \
                     {:>10} {:>14} {:>13} {:>13}",
                    "pc", "refetch_cycles", "reuse_commits", "cycles_saved"
                );
                for e in brs.iter().take(10) {
                    let gu = |k: &str| e.get(k).and_then(|x| x.as_u64()).unwrap_or(0);
                    let pc = gu("pc");
                    let _ = writeln!(
                        out,
                        "    {pc:>#10x} {:>14} {:>13} {:>13}",
                        gu("refetch_cycles"),
                        prof(pc, "reuse_commits"),
                        prof(pc, "cycles_saved")
                    );
                }
            }
        }
    }
    if let Some(rows) = b.get("whatif").and_then(|x| x.as_arr()) {
        let _ = writeln!(
            out,
            "  what-if speed limits:\n    {:24} {:>12} {:>9}",
            "scenario", "cycles", "speedup"
        );
        for r in rows {
            let _ = writeln!(
                out,
                "    {:24} {:>12} {:>8.2}x",
                r.get("scenario").and_then(|x| x.as_str()).unwrap_or("?"),
                r.get("projected_cycles")
                    .and_then(|x| x.as_u64())
                    .unwrap_or(0),
                r.get("speedup").and_then(|x| x.as_f64()).unwrap_or(1.0)
            );
        }
    }
}

/// Pretty-print the bottleneck analysis of a document (every run of a
/// bundle), or — with `old` present — the cross-run diff: CPI-group
/// share deltas and what-if speedup movement per `(name, mode)`.
pub fn render_bottleneck(doc: &JsonValue, old: Option<&JsonValue>) -> Result<String, String> {
    let runs = |d: &JsonValue| -> Vec<JsonValue> {
        match d.get("runs").and_then(|r| r.as_arr()) {
            Some(rs) => rs.to_vec(),
            None => vec![d.clone()],
        }
    };
    let mut out = String::new();
    let new_runs = runs(doc);
    if new_runs.iter().all(|r| r.get("bottleneck").is_none()) {
        return Err("document carries no bottleneck objects (pre-v5 snapshot?)".into());
    }
    let Some(old) = old else {
        for run in &new_runs {
            render_bottleneck_run(&mut out, run);
        }
        return Ok(out);
    };
    // Diff mode: per-run CPI-group shares and what-if speedups.
    let old_runs = runs(old);
    let id = |r: &JsonValue| {
        (
            r.get("name")
                .and_then(|x| x.as_str())
                .unwrap_or("?")
                .to_string(),
            r.get("mode")
                .and_then(|x| x.as_str())
                .unwrap_or("?")
                .to_string(),
        )
    };
    for n in &new_runs {
        let Some(o) = old_runs.iter().find(|o| id(o) == id(n)) else {
            let _ = writeln!(out, "{}/{}: new run (no baseline)", id(n).0, id(n).1);
            continue;
        };
        let _ = writeln!(out, "{}/{}:", id(n).0, id(n).1);
        let stack = |r: &JsonValue, k: &str| {
            r.get("bottleneck")
                .and_then(|b| b.get("cpi_stack"))
                .and_then(|s| s.get(k))
                .and_then(|x| x.as_u64())
                .unwrap_or(0)
        };
        let total = |r: &JsonValue| -> u64 {
            cfir_obs::critpath::CPI_GROUPS
                .iter()
                .map(|k| stack(r, k))
                .sum()
        };
        let (ot, nt) = (total(o).max(1), total(n).max(1));
        for key in cfir_obs::critpath::CPI_GROUPS {
            let of = stack(o, key) as f64 / ot as f64 * 100.0;
            let nf = stack(n, key) as f64 / nt as f64 * 100.0;
            let _ = writeln!(
                out,
                "  {key:16} {of:>6.2}% -> {nf:>6.2}%  ({:+.2}pp)",
                nf - of
            );
        }
        let speedup = |r: &JsonValue, scen: &str| {
            r.get("bottleneck")
                .and_then(|b| b.get("whatif"))
                .and_then(|w| w.as_arr())
                .and_then(|rows| {
                    rows.iter()
                        .find(|x| x.get("scenario").and_then(|s| s.as_str()) == Some(scen))
                })
                .and_then(|x| x.get("speedup"))
                .and_then(|x| x.as_f64())
        };
        for scen in [
            "perfect_bp",
            "infinite_replica_buffer",
            "perfect_ci_reuse",
            "perfect_everything",
        ] {
            if let (Some(os), Some(ns)) = (speedup(o, scen), speedup(n, scen)) {
                let _ = writeln!(out, "  whatif {scen:24} {os:>6.2}x -> {ns:>6.2}x");
            }
        }
    }
    Ok(out)
}

/// Pretty-print the dataflow-oracle view of a document (every run of a
/// bundle): the static-CIDI vs runtime-reuse agreement summary plus the
/// per-branch rows that actually had outcomes scored.
pub fn render_cidi(doc: &JsonValue) -> Result<String, String> {
    let runs: Vec<&JsonValue> = match doc.get("runs").and_then(|r| r.as_arr()) {
        Some(rs) => rs.iter().collect(),
        None => vec![doc],
    };
    if runs.iter().all(|r| r.get("dataflow_oracle").is_none()) {
        return Err("document carries no dataflow_oracle objects (pre-v6 snapshot?)".into());
    }
    let mut out = String::new();
    for run in runs {
        let s = |k: &str| run.get(k).and_then(|x| x.as_str()).unwrap_or("?");
        let _ = writeln!(out, "\n{} / {}", s("name"), s("mode"));
        let Some(d) = run.get("dataflow_oracle") else {
            let _ = writeln!(out, "  (no dataflow_oracle object: pre-v6 snapshot)");
            continue;
        };
        let g = |k: &str| d.get(k).and_then(|x| x.as_u64()).unwrap_or(0);
        let agreement = d
            .get("cidi_agreement")
            .and_then(|x| x.as_f64())
            .unwrap_or(1.0);
        let _ = writeln!(
            out,
            "  outcomes scored: {} (agreement {:.2}%)  {}",
            g("cidi_checked"),
            agreement * 100.0,
            bar(agreement)
        );
        let _ = writeln!(
            out,
            "  CIDI predicted clean but repaired: {}\n  \
             CIDD/clobbered predicted repair but reused clean: {}\n  \
             mechanism repairs (broken pairing, excluded from scoring): {}\n  \
             unclassified outcomes (no verdict or no event): {}",
            g("cidi_predicted_failures"),
            g("cidd_clean_reuses"),
            g("mechanism_repairs"),
            g("unclassified")
        );
        let rows = run
            .get("branch_prof")
            .and_then(|bp| bp.get("branches"))
            .and_then(|b| b.as_arr());
        let Some(rows) = rows else { continue };
        let scored: Vec<&JsonValue> = rows
            .iter()
            .filter(|r| r.get("cidi_checks").and_then(|x| x.as_u64()).unwrap_or(0) > 0)
            .collect();
        if scored.is_empty() {
            continue;
        }
        let _ = writeln!(
            out,
            "  per-branch agreement:\n    {:>10} {:>12} {:>11} {:>9}",
            "pc", "cidi_checks", "cidi_agree", "rate"
        );
        for r in scored.iter().take(10) {
            let gu = |k: &str| r.get(k).and_then(|x| x.as_u64()).unwrap_or(0);
            let (checks, agree) = (gu("cidi_checks"), gu("cidi_agree"));
            let _ = writeln!(
                out,
                "    {:>#10x} {checks:>12} {agree:>11} {:>8.2}%",
                gu("pc"),
                agree as f64 / checks.max(1) as f64 * 100.0
            );
        }
    }
    Ok(out)
}

/// Pretty-print the statistical-sampling view of a document: per-run
/// sampling parameters, window tables and mean ± 95% CI estimates
/// (the schema-v7 `sampling` object). Sampled runs are matched by
/// `(name, mode)` against the full detailed runs of `full` (or, with
/// no second document, of `doc` itself), and each estimate row gains
/// the full value, `err%` ([`Estimate::rel_error`], infinite when the
/// full value is 0 and the mean is not) and `covered`
/// ([`Estimate::contains`]) — the rule the `exp_sampling` gate applies.
///
/// The `full` column reads `ipc`, `reuse_fraction` and
/// `branch_prof.ci_exploited_fraction`. The last is *not* the formula
/// the sampled `CI exploited` estimate averages: each window divides
/// reused events by every recovered conditional misprediction,
/// wrong-path ones included (Figure 5's "≥1 reuse" denominator),
/// while `ci_exploited_fraction` divides by committed mispredictions
/// and can exceed 1. That row's `err%` measures the gap between the
/// two formulas, not the sampling error.
pub fn render_sampling(doc: &JsonValue, full: Option<&JsonValue>) -> Result<String, String> {
    let runs: Vec<&JsonValue> = match doc.get("runs").and_then(|r| r.as_arr()) {
        Some(rs) => rs.iter().collect(),
        None => vec![doc],
    };
    let sampled: Vec<&JsonValue> = runs
        .iter()
        .copied()
        .filter(|r| r.get("sampling").is_some())
        .collect();
    if sampled.is_empty() {
        return Err("document carries no sampling objects (not a cfir-sample run?)".into());
    }

    // Index the full-detailed reference runs by (name, mode) for the
    // error table: (ipc, reuse_fraction,
    // branch_prof.ci_exploited_fraction). With no second document the
    // sampled document itself serves as the reference — a mixed
    // bundle (what `cfir suite exp_sampling --emit-json` writes)
    // carries the full runs alongside the sampled ones. Runs that are
    // themselves sampled never act as references.
    let mut full_runs: Vec<(String, String, f64, f64, f64)> = Vec::new();
    {
        let fd = full.unwrap_or(doc);
        let frs: Vec<&JsonValue> = match fd.get("runs").and_then(|r| r.as_arr()) {
            Some(rs) => rs.iter().collect(),
            None => vec![fd],
        };
        for r in frs.iter().filter(|r| r.get("sampling").is_none()) {
            let s = |k: &str| r.get(k).and_then(|x| x.as_str()).unwrap_or("?").to_string();
            let f = |k: &str| r.get(k).and_then(|x| x.as_f64()).unwrap_or(0.0);
            let ci = r
                .get("branch_prof")
                .and_then(|bp| bp.get("ci_exploited_fraction"))
                .and_then(|x| x.as_f64())
                .unwrap_or(0.0);
            full_runs.push((s("name"), s("mode"), f("ipc"), f("reuse_fraction"), ci));
        }
    }

    let mut out = String::new();
    for run in sampled {
        let s = |k: &str| run.get(k).and_then(|x| x.as_str()).unwrap_or("?");
        let sam = run.get("sampling").expect("filtered on presence");
        let g = |k: &str| sam.get(k).and_then(|x| x.as_u64()).unwrap_or(0);
        let _ = writeln!(out, "\n{} / {}", s("name"), s("mode"));
        let _ = writeln!(
            out,
            "  period {} / warmup {} / window {} — {} fast-forwarded, {} detailed{}",
            g("period"),
            g("warmup"),
            g("window"),
            g("ff_insts"),
            g("detailed_insts"),
            if sam.get("halted") == Some(&JsonValue::Bool(true)) {
                ", halted"
            } else {
                ""
            }
        );

        let full_vals = full_runs
            .iter()
            .find(|(n, m, ..)| n == s("name") && m == s("mode"));
        let _ = writeln!(
            out,
            "  {:<13} {:>3} {:>9} {:>9}{}",
            "metric",
            "n",
            "mean",
            "hw95",
            if full_vals.is_some() {
                "      full    err%  covered"
            } else {
                ""
            }
        );
        for (label, key, pick) in [
            ("IPC", "ipc", 0usize),
            ("reuse rate", "reuse_rate", 1),
            ("CI exploited", "ci_exploited", 2),
        ] {
            let e = Estimate::from_json(sam.get(key).unwrap_or(&JsonValue::Null));
            let _ = write!(
                out,
                "  {label:<13} {:>3} {:>9.4} {:>9.4}",
                e.n, e.mean, e.half_width
            );
            if let Some((_, _, fi, fr, fc)) = full_vals {
                let fv = [*fi, *fr, *fc][pick];
                let _ = write!(
                    out,
                    "  {fv:>8.4} {:>6.2}%  {}",
                    e.rel_error(fv) * 100.0,
                    if e.contains(fv) { "yes" } else { "no" }
                );
            }
            let _ = writeln!(out);
        }

        if let Some(wins) = sam.get("windows").and_then(|w| w.as_arr()) {
            let _ = writeln!(
                out,
                "  {:>6} {:>11} {:>17} {:>9} {:>7} {:>6} {:>7} {:>8}",
                "window",
                "start_inst",
                "checkpoint",
                "committed",
                "cycles",
                "ipc",
                "reuse",
                "ci_expl"
            );
            const SHOWN: usize = 16;
            for (k, w) in wins.iter().take(SHOWN).enumerate() {
                let u = |k: &str| w.get(k).and_then(|x| x.as_u64()).unwrap_or(0);
                let f = |k: &str| w.get(k).and_then(|x| x.as_f64()).unwrap_or(0.0);
                let _ = writeln!(
                    out,
                    "  {k:>6} {:>11} {:>17} {:>9} {:>7} {:>6.3} {:>7.4} {:>8.4}",
                    u("start_inst"),
                    w.get("checkpoint").and_then(|x| x.as_str()).unwrap_or("?"),
                    u("committed"),
                    u("cycles"),
                    f("ipc"),
                    f("reuse_rate"),
                    f("ci_exploited")
                );
            }
            if wins.len() > SHOWN {
                let _ = writeln!(out, "  … and {} more windows", wins.len() - SHOWN);
            }
        }
    }
    Ok(out)
}

/// Pretty-print a snapshot document: headline metrics per run, the
/// top of the per-branch scorecard, and histogram percentiles.
pub fn render(doc: &JsonValue) -> String {
    let mut out = String::new();
    if let Some(title) = doc.get("title").and_then(|t| t.as_str()) {
        let _ = writeln!(out, "== {title} ==");
    }
    let runs: Vec<&JsonValue> = match doc.get("runs").and_then(|r| r.as_arr()) {
        Some(rs) => rs.iter().collect(),
        None => vec![doc],
    };
    if runs.is_empty() {
        // Table-only bundle (e.g. the Table 1 configuration dump).
        if let Some((_, rows)) = extract_table(doc) {
            for row in rows {
                let _ = writeln!(out, "  {}", row.join("  |  "));
            }
        }
        return out;
    }
    for run in runs {
        render_run(&mut out, run);
    }
    out
}

fn render_run(out: &mut String, run: &JsonValue) {
    let s = |k: &str| {
        run.get(k)
            .and_then(|x| x.as_str())
            .unwrap_or("?")
            .to_string()
    };
    let f = |k: &str| run.get(k).and_then(|x| x.as_f64()).unwrap_or(0.0);
    let _ = writeln!(out, "\n{} / {}", s("name"), s("mode"));
    let _ = writeln!(
        out,
        "  ipc={:.3}  cycles={}  committed={}  reuse={:.2}%  mispredict={:.2}%  wrong-path={:.2}%",
        f("ipc"),
        f("cycles") as u64,
        f("committed") as u64,
        f("reuse_fraction") * 100.0,
        f("mispredict_rate") * 100.0,
        f("wrong_path_fraction") * 100.0,
    );
    if let Some(h) = run.get("histograms") {
        for key in [
            "load_to_use",
            "branch_resolve",
            "reuse_wait",
            "flush_recovery",
        ] {
            let Some(hist) = h.get(key) else { continue };
            let g = |k: &str| hist.get(k).and_then(|x| x.as_u64());
            if let (Some(n), Some(p50), Some(p90), Some(p99)) =
                (g("count"), g("p50"), g("p90"), g("p99"))
            {
                let _ = writeln!(
                    out,
                    "  {key:16} n={n}  p50={p50}  p90={p90}  p99={p99}  max={}",
                    g("max").unwrap_or(0)
                );
            }
        }
    }
    let Some(bp) = run.get("branch_prof") else {
        return;
    };
    let _ = writeln!(
        out,
        "  CI exploited for {:.1}% of mispredictions across {} static branches",
        bp.get("ci_exploited_fraction")
            .and_then(|x| x.as_f64())
            .unwrap_or(0.0)
            * 100.0,
        bp.get("static_branches")
            .and_then(|x| x.as_u64())
            .unwrap_or(0),
    );
    let Some(rows) = bp.get("branches").and_then(|b| b.as_arr()) else {
        return;
    };
    let _ = writeln!(
        out,
        "  {:>8} {:>9} {:>9} {:>8} {:>9} {:>9} {:>8} {:>10}",
        "pc", "executed", "mispred", "events", "ev-reuse", "reuses", "wasted", "cyc-saved"
    );
    for row in rows.iter().take(10) {
        let g = |k: &str| row.get(k).and_then(|x| x.as_u64()).unwrap_or(0);
        let _ = writeln!(
            out,
            "  {:>#8x} {:>9} {:>9} {:>8} {:>9} {:>9} {:>8} {:>10}",
            g("pc"),
            g("executed"),
            g("mispredicts"),
            g("events"),
            g("events_reused"),
            g("reuse_commits"),
            g("replicas_wasted"),
            g("cycles_saved"),
        );
    }
    if rows.len() > 10 {
        let _ = writeln!(out, "  ... {} more branches", rows.len() - 10);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(name: &str, mode: &str, ipc: f64, reuse: f64) -> String {
        format!(
            r#"{{"schema_version":2,"name":"{name}","mode":"{mode}","ipc":{ipc},
               "reuse_fraction":{reuse},"mispredict_rate":0.05,
               "wrong_path_fraction":0.3,"cycles":1000,"committed":2500,
               "branch_prof":{{"static_branches":1,"ci_exploited_fraction":0.5,
                 "totals":{{}},"unattributed":{{}},"branches":[]}}}}"#
        )
    }

    fn bundle(runs: &[String]) -> String {
        format!(
            r#"{{"schema_version":2,"title":"t","table":{{"header":[],"rows":[]}},"runs":[{}]}}"#,
            runs.join(",")
        )
    }

    #[test]
    fn tolerance_parsing() {
        assert_eq!(parse_tolerance("2%"), Some(0.02));
        assert_eq!(parse_tolerance("0.02"), Some(0.02));
        assert_eq!(parse_tolerance("0"), Some(0.0));
        assert_eq!(parse_tolerance("-1"), None);
        assert_eq!(parse_tolerance("x"), None);
    }

    #[test]
    fn schema_gatekeeping() {
        assert!(parse_doc(r#"{"ipc":1.0}"#).is_err(), "no version");
        assert!(parse_doc(r#"{"schema_version":99}"#).is_err(), "too new");
        assert!(parse_doc(r#"{"schema_version":1}"#).is_ok(), "v1 ok");
    }

    #[test]
    fn single_and_bundle_extraction() {
        let one = parse_doc(&snap("bzip2", "ci", 2.0, 0.1)).unwrap();
        let rs = extract_runs(&one).unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].name, "bzip2");
        // ci_exploited_fraction comes from branch_prof.
        let idx = METRICS
            .iter()
            .position(|m| m.key == "ci_exploited_fraction")
            .unwrap();
        assert_eq!(rs[0].values[idx], Some(0.5));

        let b = parse_doc(&bundle(&[
            snap("a", "ci", 1.0, 0.1),
            snap("a", "scal", 0.8, 0.0),
        ]))
        .unwrap();
        let rs = extract_runs(&b).unwrap();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs[1].mode, "scal");
    }

    #[test]
    fn identical_documents_never_regress() {
        let d = parse_doc(&snap("b", "ci", 2.0, 0.12)).unwrap();
        let o = diff(&d, &d, 0.0).unwrap();
        assert!(!o.regressed, "{}", o.report);
        assert!(o.report.contains("ipc"));
    }

    #[test]
    fn ipc_drop_beyond_tolerance_regresses() {
        let old = parse_doc(&snap("b", "ci", 2.0, 0.12)).unwrap();
        let new = parse_doc(&snap("b", "ci", 1.9, 0.12)).unwrap();
        // 5% drop: fails a 2% gate, passes a 10% gate.
        let tight = diff(&old, &new, 0.02).unwrap();
        assert!(tight.regressed);
        assert!(tight.report.contains("REGRESSION"));
        let loose = diff(&old, &new, 0.10).unwrap();
        assert!(!loose.regressed, "{}", loose.report);
    }

    #[test]
    fn reuse_drop_regresses_and_improvement_does_not() {
        let old = parse_doc(&snap("b", "ci", 2.0, 0.12)).unwrap();
        let worse = parse_doc(&snap("b", "ci", 2.0, 0.05)).unwrap();
        assert!(diff(&old, &worse, 0.02).unwrap().regressed);
        let better = parse_doc(&snap("b", "ci", 2.5, 0.20)).unwrap();
        assert!(!diff(&old, &better, 0.02).unwrap().regressed);
    }

    #[test]
    fn missing_baseline_run_is_a_regression() {
        let old = parse_doc(&bundle(&[
            snap("a", "ci", 1.0, 0.1),
            snap("a", "scal", 0.8, 0.0),
        ]))
        .unwrap();
        let new = parse_doc(&bundle(&[snap("a", "ci", 1.0, 0.1)])).unwrap();
        let o = diff(&old, &new, 0.02).unwrap();
        assert!(o.regressed);
        assert!(o.report.contains("MISSING"));
        // The reverse (extra new run) is fine.
        let o = diff(&new, &old, 0.02).unwrap();
        assert!(!o.regressed, "{}", o.report);
        assert!(o.report.contains("new run"));
    }

    #[test]
    fn v1_baseline_without_branch_prof_still_checks() {
        // A v1 snapshot has no branch_prof: the ci_exploited_fraction
        // column is informational, the IPC gate still applies.
        let v1 = parse_doc(
            r#"{"schema_version":1,"name":"b","mode":"ci","ipc":2.0,
                "reuse_fraction":0.12,"mispredict_rate":0.05,
                "wrong_path_fraction":0.3,"cycles":1000,"committed":2500}"#,
        )
        .unwrap();
        let v2 = parse_doc(&snap("b", "ci", 1.5, 0.12)).unwrap();
        let o = diff(&v1, &v2, 0.02).unwrap();
        assert!(o.regressed, "IPC 2.0 -> 1.5 must fail the gate");
    }

    #[test]
    fn table_only_documents_diff_textually() {
        let t1 = r#"{"schema_version":2,"title":"Table 1",
            "table":{"header":["parameter","value"],
                     "rows":[["Fetch width","8"],["Commit width","8"]]},
            "runs":[]}"#;
        let t2 = r#"{"schema_version":2,"title":"Table 1",
            "table":{"header":["parameter","value"],
                     "rows":[["Fetch width","4"],["Commit width","8"]]},
            "runs":[]}"#;
        let a = parse_doc(t1).unwrap();
        let b = parse_doc(t2).unwrap();
        let same = diff(&a, &a, 0.02).unwrap();
        assert!(!same.regressed, "{}", same.report);
        let drift = diff(&a, &b, 0.02).unwrap();
        assert!(drift.regressed, "config drift must gate");
        assert!(drift.report.contains("CHANGED"));
        // Pretty-printing a table-only doc shows the rows.
        assert!(render(&a).contains("Fetch width"));
    }

    fn bsnap(name: &str, mode: &str, dropped: u64, base: u64, mem: u64, bp_speedup: f64) -> String {
        format!(
            r#"{{"schema_version":5,"name":"{name}","mode":"{mode}","ipc":1.0,
               "cycles":1000,"committed":2500,
               "lifecycle":{{"records":10,"dropped":{dropped}}},
               "branch_prof":{{"static_branches":1,"ci_exploited_fraction":0.5,
                 "totals":{{}},"unattributed":{{}},
                 "branches":[{{"pc":40,"reuse_commits":12,"cycles_saved":34}}]}},
               "bottleneck":{{
                 "cpi_stack":{{"base":{base},"reuse_recovered":0,"frontend":100,
                   "bad_speculation":200,"backend_memory":{mem},"backend_core":100}},
                 "critical_path":{{"span":900,"start_cycle":0,"steps":40,
                   "classes":{{"cache_mem":500,"mispredict_refetch":300,"commit":100}},
                   "edges":[{{"pc":64,"class":"cache_mem","cycles":500}}],
                   "branches":[{{"pc":40,"refetch_cycles":300}}]}},
                 "whatif":[
                   {{"scenario":"perfect_bp","projected_cycles":700,"speedup":{bp_speedup}}},
                   {{"scenario":"perfect_everything","projected_cycles":500,"speedup":2.0}}]}}}}"#
        )
    }

    #[test]
    fn dropped_lifecycle_records_are_detected() {
        let clean = parse_doc(&bsnap("b", "ci", 0, 2000, 500, 1.4)).unwrap();
        assert_eq!(lifecycle_dropped(&clean), 0);
        let dirty = parse_doc(&bsnap("b", "ci", 7, 2000, 500, 1.4)).unwrap();
        assert_eq!(lifecycle_dropped(&dirty), 7);
        // Pre-v4 documents without a lifecycle object count as zero.
        let v1 = parse_doc(r#"{"schema_version":1,"ipc":1.0}"#).unwrap();
        assert_eq!(lifecycle_dropped(&v1), 0);
    }

    #[test]
    fn bottleneck_render_shows_stack_path_and_whatif() {
        let d = parse_doc(&bsnap("bzip2", "ci", 0, 2000, 500, 1.4)).unwrap();
        let out = render_bottleneck(&d, None).unwrap();
        assert!(out.contains("bzip2 / ci"), "{out}");
        assert!(out.contains("CPI stack"), "{out}");
        assert!(out.contains("backend_memory"), "{out}");
        assert!(out.contains("span=900"), "{out}");
        assert!(out.contains("cache_mem"), "{out}");
        assert!(out.contains("perfect_bp"), "{out}");
        assert!(out.contains("1.40x"), "{out}");
        // The per-branch table joins refetch cycles against the PR-2
        // scorecard row of the same pc.
        assert!(out.contains("per-branch headroom"), "{out}");
        let br = out
            .lines()
            .find(|l| l.trim_start().starts_with("0x28"))
            .unwrap_or_else(|| panic!("no joined branch row in {out}"));
        assert!(br.contains("300"), "{br}");
        assert!(br.contains("12"), "{br}");
        assert!(br.contains("34"), "{br}");
        // A document with no bottleneck objects at all is an error.
        let v1 = parse_doc(r#"{"schema_version":1,"ipc":1.0}"#).unwrap();
        assert!(render_bottleneck(&v1, None).is_err());
    }

    #[test]
    fn cidi_render_shows_oracle_summary_and_branch_rows() {
        let d = parse_doc(
            r#"{"schema_version":6,"name":"twolf","mode":"ci","ipc":1.0,
               "branch_prof":{"static_branches":1,
                 "totals":{},"unattributed":{},
                 "branches":[{"pc":40,"cidi_checks":8,"cidi_agree":6},
                             {"pc":44,"cidi_checks":0,"cidi_agree":0}]},
               "dataflow_oracle":{"cidi_checked":8,"cidi_agreed":6,
                 "cidi_agreement":0.75,"cidi_predicted_failures":2,
                 "cidd_clean_reuses":0,"unclassified":3}}"#,
        )
        .unwrap();
        let out = render_cidi(&d).unwrap();
        assert!(out.contains("twolf / ci"), "{out}");
        assert!(out.contains("outcomes scored: 8"), "{out}");
        assert!(out.contains("75.00%"), "{out}");
        assert!(out.contains("repaired: 2"), "{out}");
        assert!(
            out.contains("unclassified outcomes (no verdict or no event): 3"),
            "{out}"
        );
        // Only the branch with scored outcomes appears in the table.
        assert!(out.contains("0x28"), "{out}");
        assert!(!out.contains("0x2c"), "{out}");
        // A document with no dataflow_oracle objects at all is an error.
        let v5 = parse_doc(&bsnap("b", "ci", 0, 2000, 500, 1.4)).unwrap();
        assert!(render_cidi(&v5).is_err());
    }

    #[test]
    fn sampling_render_judges_estimates_by_the_gate_rule() {
        let est = |n, mean, hw| format!(r#"{{"n":{n},"mean":{mean},"half_width":{hw}}}"#);
        let sampled = format!(
            r#"{{"schema_version":7,"name":"mcf","mode":"ci","sampling":{{
                 "period":10,"warmup":1,"window":2,"ff_insts":10,"detailed_insts":3,
                 "halted":false,"ipc":{},"reuse_rate":{},"ci_exploited":{},
                 "windows":[]}}}}"#,
            est(4, 2.6, 0.2),
            est(4, 0.02, 0.01),
            est(1, 0.5, 0.0)
        );
        let full = parse_doc(
            r#"{"schema_version":7,"name":"mcf","mode":"ci","ipc":2.5,
               "reuse_fraction":0,"branch_prof":{"ci_exploited_fraction":0.5}}"#,
        )
        .unwrap();
        let out = render_sampling(&parse_doc(&sampled).unwrap(), Some(&full)).unwrap();
        assert!(out.contains("  2.5000   4.00%  yes"), "{out}");
        // A zero full value bounds nothing unless the mean is zero too.
        assert!(out.contains("  0.0000    inf%  no"), "{out}");
        // One window never covers, even at zero error.
        assert!(out.contains("  0.5000   0.00%  no"), "{out}");
    }

    #[test]
    fn bottleneck_diff_reports_share_and_speedup_movement() {
        let old = parse_doc(&bsnap("b", "ci", 0, 2000, 500, 1.4)).unwrap();
        let new = parse_doc(&bsnap("b", "ci", 0, 1500, 1000, 1.8)).unwrap();
        let out = render_bottleneck(&new, Some(&old)).unwrap();
        assert!(out.contains("b/ci:"), "{out}");
        assert!(out.contains("backend_memory"), "{out}");
        assert!(out.contains("pp)"), "{out}");
        assert!(out.contains("1.40x"), "{out}");
        assert!(out.contains("1.80x"), "{out}");
    }

    #[test]
    fn render_shows_headlines_and_scorecard() {
        let d = parse_doc(&snap("bzip2", "ci", 2.0, 0.1)).unwrap();
        let r = render(&d);
        assert!(r.contains("bzip2 / ci"));
        assert!(r.contains("ipc=2.000"));
        assert!(r.contains("CI exploited for 50.0%"));
    }
}
