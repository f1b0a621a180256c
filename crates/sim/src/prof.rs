//! Per-static-branch CI-reuse scorecards.
//!
//! The paper's headline claim — control-flow independence is exploited
//! for ~50% of mispredicted branches — is a *per-site* property: some
//! static branches are gold mines for the mechanism, others never pay.
//! This module attributes every mechanism action (event opened, replica
//! dispatched/executed, validation, committed reuse) back to the static
//! branch whose misprediction triggered it, keyed by the branch's word
//! PC, so a run can be profiled branch by branch instead of only in
//! aggregate.
//!
//! Attribution flows through the misprediction *event* id that the
//! selection machinery threads through `SRSMT` entries and the
//! window's [`crate::rob::Validation`] records. The event table lives
//! here: each id indexes the branch PC that opened the event and its
//! Figure 5 flags (CI selected, a value reused), and every flag change
//! moves the event between its branch row's `events_selected` and
//! `events_reused`, so the per-branch counts and the run's Figure 5
//! classification come from one record. All downstream work is charged
//! to the event's branch. Work with no event (e.g. `vect` mode, which
//! vectorizes on stride trust alone) lands in an explicit
//! `unattributed` bucket so scorecard totals always reconcile exactly
//! with the global [`crate::stats::SimStats`] counters.

use std::collections::HashMap;

/// Mechanism effectiveness at one static conditional branch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BranchScore {
    /// Committed dynamic instances of this branch.
    pub executed: u64,
    /// Committed instances whose prediction was wrong.
    pub mispredicts: u64,
    /// CI events opened by this branch (hard mispredictions that
    /// activated the CRP).
    pub events: u64,
    /// Events in which at least one precomputed result was reused —
    /// the paper's "CI exploited" numerator.
    pub events_reused: u64,
    /// Events that selected CI instructions but reused none.
    pub events_selected: u64,
    /// Replica instances dispatched to the engine for work this branch
    /// selected.
    pub replicas_created: u64,
    /// Replica instances that actually executed.
    pub replicas_executed: u64,
    /// Decode-time validations that consumed a replica slot.
    pub validations: u64,
    /// Committed instructions that reused a value attributed to this
    /// branch's events.
    pub reuse_commits: u64,
    /// Estimated execution cycles the reuses avoided (the FU or L1-hit
    /// latency each validated instruction skipped).
    pub cycles_saved: u64,
    /// Runtime RCP-oracle comparisons at this branch: each time a CI
    /// event opened here, the detector's re-convergence estimate was
    /// compared against the static post-dominator truth.
    pub rcp_checks: u64,
    /// ... of which the estimate matched the static truth exactly.
    pub rcp_agree: u64,
    /// Runtime dataflow-oracle comparisons at this branch: reuse
    /// outcomes of instructions the static CIDI classification issued
    /// a verdict for.
    pub cidi_checks: u64,
    /// ... of which the outcome matched the verdict (CIDI reused
    /// clean; CIDD/clobbered needed repair).
    pub cidi_agree: u64,
}

impl BranchScore {
    /// Replicas executed whose value was never consumed by a committed
    /// reuse — the wasted speculative work at this branch.
    pub fn replicas_wasted(&self) -> u64 {
        self.replicas_executed.saturating_sub(self.reuse_commits)
    }

    /// Fraction of this branch's mispredictions for which CI was
    /// exploited (≥ 1 reuse survived the squash).
    pub fn ci_exploited_rate(&self) -> f64 {
        if self.mispredicts == 0 {
            0.0
        } else {
            self.events_reused as f64 / self.mispredicts as f64
        }
    }

    fn add(&mut self, other: &BranchScore) {
        self.executed += other.executed;
        self.mispredicts += other.mispredicts;
        self.events += other.events;
        self.events_reused += other.events_reused;
        self.events_selected += other.events_selected;
        self.replicas_created += other.replicas_created;
        self.replicas_executed += other.replicas_executed;
        self.validations += other.validations;
        self.reuse_commits += other.reuse_commits;
        self.cycles_saved += other.cycles_saved;
        self.rcp_checks += other.rcp_checks;
        self.rcp_agree += other.rcp_agree;
        self.cidi_checks += other.cidi_checks;
        self.cidi_agree += other.cidi_agree;
    }
}

/// Static (post-dominator) ground truth about one conditional branch,
/// seeded from `cfir-analyze` when the pipeline is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticTruth {
    /// Exact post-dominator-based reconvergence PC (`None` when the
    /// paths only meet at the program exit).
    pub rcp: Option<u32>,
    /// Hammock class name (`ifthen`, `ifthenelse`, `loopback`, ...).
    pub class: &'static str,
}

/// Marks an empty slot of [`BranchProf`]'s dense PC table.
const NONE: u32 = u32::MAX;

/// One CI event: a hard-branch misprediction that activated the CRP.
#[derive(Debug, Clone, Copy)]
struct Event {
    /// Word PC of the branch whose misprediction opened the event.
    pc: u32,
    /// At least one control-independent instruction passed the mask
    /// test.
    selected: bool,
    /// At least one reuse attributed to the event committed (implies
    /// `selected`).
    reused: bool,
}

/// The per-run scorecard table plus the unattributed spill bucket.
#[derive(Debug, Clone, Default)]
pub struct BranchProf {
    /// Scores by branch word PC, in the order the PCs were first seen.
    scores: Vec<(u32, BranchScore)>,
    /// Index into `scores` by word PC ([`NONE`]: no row yet).
    row_of: Vec<u32>,
    /// Every CI event, indexed by its id.
    events: Vec<Event>,
    /// All recovered conditional-branch mispredictions, wrong path
    /// included, whether or not they opened an event: the denominator
    /// of Figure 5.
    pub total_mispredictions: u64,
    /// Mechanism work that carried no event id (e.g. `vect` mode):
    /// kept so totals reconcile with the global statistics.
    pub unattributed: BranchScore,
    /// Static oracle truth per branch PC (seeded at pipeline build).
    statics: HashMap<u32, StaticTruth>,
    /// Static CIDI verdict per `(branch PC, instruction PC)` pair,
    /// seeded from the dataflow engine at pipeline build. Values are
    /// the verdict names (`"cidi"`, `"cidd"`, `"clobbered"`).
    cidi_verdicts: HashMap<(u32, u32), &'static str>,
    /// CIDI-predicted instructions whose reuse failed validation — the
    /// static analysis promised success and was wrong.
    pub cidi_pred_failures: u64,
    /// CIDD/clobbered-predicted instructions that reused clean — the
    /// validation the analysis demanded turned out unnecessary.
    pub cidd_clean_reuses: u64,
    /// Scored reuse outcomes the oracle could not classify (no event
    /// attribution, or the instruction lies outside the classified
    /// region / horizon).
    pub cidi_unclassified: u64,
    /// Verdict-attributed commit-stage repairs excluded from scoring:
    /// the decode-time pairing was already broken, so the repair is
    /// mechanism mis-speculation, not dataflow evidence (see
    /// [`BranchProf::note_cidi_mechanism_repair`]).
    pub cidi_mechanism_repairs: u64,
}

impl BranchProf {
    /// The row of the branch at `pc`, created empty on first use.
    fn row(&mut self, pc: u32) -> &mut BranchScore {
        let at = pc as usize;
        if at >= self.row_of.len() {
            self.row_of.resize(at + 1, NONE);
        }
        if self.row_of[at] == NONE {
            self.row_of[at] = self.scores.len() as u32;
            self.scores.push((pc, BranchScore::default()));
        }
        &mut self.scores[self.row_of[at] as usize].1
    }

    /// The branch PC that opened event `id`, if it was opened.
    #[inline]
    fn pc_of(&self, id: u64) -> Option<u32> {
        Some(self.events.get(usize::try_from(id).ok()?)?.pc)
    }

    /// A committed conditional branch (called from the commit stage).
    pub fn note_branch(&mut self, pc: u32, mispredicted: bool) {
        let s = self.row(pc);
        s.executed += 1;
        if mispredicted {
            s.mispredicts += 1;
        }
    }

    /// Open a CI event for a hard misprediction of the branch at `pc`;
    /// returns its id.
    pub fn open_event(&mut self, pc: u32) -> u64 {
        self.total_mispredictions += 1;
        self.row(pc).events += 1;
        self.events.push(Event {
            pc,
            selected: false,
            reused: false,
        });
        (self.events.len() - 1) as u64
    }

    /// A misprediction that opened no event (an easy branch): Figure
    /// 5's "not found".
    pub fn mispredict_without_event(&mut self) {
        self.total_mispredictions += 1;
    }

    /// Event `id` selected a control-independent instruction. Unknown
    /// ids are ignored.
    pub fn mark_selected(&mut self, id: u64) {
        let Some(ev) = self.events.get_mut(id as usize) else {
            return;
        };
        if ev.selected {
            return;
        }
        ev.selected = true;
        let pc = ev.pc;
        self.row(pc).events_selected += 1;
    }

    /// A reuse attributed to event `id` committed. Unknown ids are
    /// ignored.
    pub fn mark_reused(&mut self, id: u64) {
        let Some(ev) = self.events.get_mut(id as usize) else {
            return;
        };
        if ev.reused {
            return;
        }
        let was_selected = ev.selected;
        ev.selected = true;
        ev.reused = true;
        let pc = ev.pc;
        let s = self.row(pc);
        if was_selected {
            s.events_selected -= 1;
        }
        s.events_reused += 1;
    }

    /// Mark the most recently opened event as reused. Used at commit of
    /// a reused instruction: the misprediction whose recovery the reuse
    /// survived is the most recent one — precomputed results outliving
    /// that squash is precisely what Figure 5's black bars count.
    pub fn mark_reused_current(&mut self) {
        if let Some(last) = self.events.len().checked_sub(1) {
            self.mark_reused(last as u64);
        }
    }

    /// Figure 5's counts over *all* mispredictions: `(not_found,
    /// selected_no_reuse, reused)`, tallied from the events' flags.
    /// Mispredictions without an event are "not found".
    pub fn event_counts(&self) -> (u64, u64, u64) {
        let (mut sel, mut reu) = (0, 0);
        for e in &self.events {
            if e.reused {
                reu += 1;
            } else if e.selected {
                sel += 1;
            }
        }
        (self.total_mispredictions - sel - reu, sel, reu)
    }

    /// [`BranchProf::event_counts`] as fractions of all mispredictions.
    pub fn event_fractions(&self) -> (f64, f64, f64) {
        let (nf, sel, reu) = self.event_counts();
        let t = self.total_mispredictions.max(1) as f64;
        (nf as f64 / t, sel as f64 / t, reu as f64 / t)
    }

    /// Seed the static oracle truth for the branch at `pc`.
    pub fn set_static_truth(&mut self, pc: u32, truth: StaticTruth) {
        self.statics.insert(pc, truth);
    }

    /// Static oracle truth for the branch at `pc`, if seeded.
    pub fn static_truth(&self, pc: u32) -> Option<StaticTruth> {
        self.statics.get(&pc).copied()
    }

    /// A runtime comparison of the dynamic RCP estimate against the
    /// static truth at the branch `pc` (called when a CI event opens).
    pub fn note_rcp_check(&mut self, pc: u32, agree: bool) {
        let s = self.row(pc);
        s.rcp_checks += 1;
        if agree {
            s.rcp_agree += 1;
        }
    }

    /// `(checked, agreed)` runtime RCP-oracle totals over all branches.
    pub fn rcp_totals(&self) -> (u64, u64) {
        let t = self.totals();
        (t.rcp_checks, t.rcp_agree)
    }

    /// Runtime agreement fraction between the dynamic RCP estimate and
    /// the static oracle (1.0 when nothing was checked).
    pub fn rcp_agreement(&self) -> f64 {
        let (checked, agreed) = self.rcp_totals();
        if checked == 0 {
            1.0
        } else {
            agreed as f64 / checked as f64
        }
    }

    /// Seed the static CIDI verdict for `inst_pc` in the CI region of
    /// the branch at `branch_pc`.
    pub fn set_cidi_verdict(&mut self, branch_pc: u32, inst_pc: u32, verdict: &'static str) {
        self.cidi_verdicts.insert((branch_pc, inst_pc), verdict);
    }

    /// Static CIDI verdict for `(branch_pc, inst_pc)`, if seeded.
    pub fn cidi_verdict(&self, branch_pc: u32, inst_pc: u32) -> Option<&'static str> {
        self.cidi_verdicts.get(&(branch_pc, inst_pc)).copied()
    }

    /// A definitive runtime reuse outcome for the instruction at
    /// `inst_pc` under the CI event `event`: `clean` is `true` when
    /// the saved value validated / committed unchanged, `false` when
    /// validation failed and the value had to be repaired. Scores the
    /// static verdict: CIDI must reuse clean, CIDD/clobbered must not.
    pub fn note_cidi_outcome(&mut self, event: Option<u64>, inst_pc: u32, clean: bool) {
        let Some(branch_pc) = event.and_then(|id| self.pc_of(id)) else {
            self.cidi_unclassified += 1;
            return;
        };
        let Some(verdict) = self.cidi_verdicts.get(&(branch_pc, inst_pc)).copied() else {
            self.cidi_unclassified += 1;
            return;
        };
        let s = self.row(branch_pc);
        s.cidi_checks += 1;
        let agree = if verdict == "cidi" { clean } else { !clean };
        if agree {
            s.cidi_agree += 1;
        } else if verdict == "cidi" {
            self.cidi_pred_failures += 1;
        } else {
            self.cidd_clean_reuses += 1;
        }
    }

    /// A commit-stage reuse repair: the decode-time checks let a value
    /// through that architectural verify rejected. The repair is *not*
    /// evidence about the static CIDI claim — the mechanism's instance
    /// pairing is already known-broken (stale generation, torn-down
    /// entry, or an incomplete replica slot), so the wrong value says
    /// nothing about whether this instruction depends on the branch.
    /// Counted separately so the exclusion is visible in the oracle.
    pub fn note_cidi_mechanism_repair(&mut self, event: Option<u64>, inst_pc: u32) {
        let attributed = event
            .and_then(|id| self.pc_of(id))
            .is_some_and(|bpc| self.cidi_verdicts.contains_key(&(bpc, inst_pc)));
        if attributed {
            self.cidi_mechanism_repairs += 1;
        } else {
            self.cidi_unclassified += 1;
        }
    }

    /// `(checked, agreed)` runtime dataflow-oracle totals over all
    /// branches.
    pub fn cidi_totals(&self) -> (u64, u64) {
        let t = self.totals();
        (t.cidi_checks, t.cidi_agree)
    }

    /// Runtime agreement fraction between the static CIDI verdicts and
    /// the observed reuse outcomes (1.0 when nothing was checked).
    pub fn cidi_agreement(&self) -> f64 {
        let (checked, agreed) = self.cidi_totals();
        if checked == 0 {
            1.0
        } else {
            agreed as f64 / checked as f64
        }
    }

    fn score_for(&mut self, event: Option<u64>) -> &mut BranchScore {
        match event.and_then(|id| self.pc_of(id)) {
            Some(pc) => self.row(pc),
            None => &mut self.unattributed,
        }
    }

    /// A replica instance was dispatched to the engine.
    pub fn note_replica_created(&mut self, event: Option<u64>) {
        self.score_for(event).replicas_created += 1;
    }

    /// A replica instance executed.
    pub fn note_replica_executed(&mut self, event: Option<u64>) {
        self.score_for(event).replicas_executed += 1;
    }

    /// A decode-time validation consumed a replica slot.
    pub fn note_validation(&mut self, event: Option<u64>) {
        self.score_for(event).validations += 1;
    }

    /// A reused value committed; `cycles_saved` estimates the
    /// execution latency the validating instruction skipped.
    pub fn note_reuse_commit(&mut self, event: Option<u64>, cycles_saved: u64) {
        let s = self.score_for(event);
        s.reuse_commits += 1;
        s.cycles_saved += cycles_saved;
    }

    /// Number of distinct static branches profiled.
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// Whether no branch was profiled.
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }

    /// The score of one branch PC.
    pub fn get(&self, pc: u32) -> Option<&BranchScore> {
        let row = *self.row_of.get(pc as usize)?;
        (row != NONE).then(|| &self.scores[row as usize].1)
    }

    /// All `(pc, score)` rows, sorted by descending misprediction
    /// count (ties broken by PC) — the order reports print in.
    pub fn sorted(&self) -> Vec<(u32, BranchScore)> {
        let mut rows = self.scores.clone();
        rows.sort_by(|a, b| b.1.mispredicts.cmp(&a.1.mispredicts).then(a.0.cmp(&b.0)));
        rows
    }

    /// Sum over every branch row (the `unattributed` bucket excluded).
    pub fn totals(&self) -> BranchScore {
        let mut t = BranchScore::default();
        for (_, s) in &self.scores {
            t.add(s);
        }
        t
    }

    /// Sum over every row *including* the unattributed bucket — the
    /// side that must reconcile with the global statistics.
    pub fn grand_totals(&self) -> BranchScore {
        let mut t = self.totals();
        t.add(&self.unattributed);
        t
    }

    /// The paper's headline metric: fraction of all committed
    /// mispredictions for which CI was exploited (≥ 1 reuse).
    pub fn ci_exploited_fraction(&self) -> f64 {
        let t = self.totals();
        if t.mispredicts == 0 {
            0.0
        } else {
            t.events_reused as f64 / t.mispredicts as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribution_and_totals() {
        let mut p = BranchProf::default();
        // Branch 10 mispredicts twice; one event gets a reuse.
        p.note_branch(10, true);
        p.note_branch(10, true);
        p.note_branch(10, false);
        p.open_event(10);
        let e1 = p.open_event(10);
        p.mark_selected(e1);
        p.mark_reused(e1);
        p.note_replica_created(Some(e1));
        p.note_replica_created(Some(e1));
        p.note_replica_executed(Some(e1));
        p.note_validation(Some(e1));
        p.note_reuse_commit(Some(e1), 3);
        // Branch 20: clean, seen only at commit.
        p.note_branch(20, false);
        // Eventless work spills to unattributed.
        p.note_replica_created(None);
        p.note_reuse_commit(None, 1);

        let s10 = p.get(10).copied().unwrap();
        assert_eq!(s10.executed, 3);
        assert_eq!(s10.mispredicts, 2);
        assert_eq!(s10.events, 2);
        assert_eq!(s10.events_reused, 1);
        assert_eq!(s10.events_selected, 0);
        assert_eq!(s10.replicas_created, 2);
        assert_eq!(s10.replicas_executed, 1);
        assert_eq!(s10.validations, 1);
        assert_eq!(s10.reuse_commits, 1);
        assert_eq!(s10.cycles_saved, 3);
        assert_eq!(s10.replicas_wasted(), 0);
        assert!((s10.ci_exploited_rate() - 0.5).abs() < 1e-12);

        assert_eq!(p.unattributed.replicas_created, 1);
        assert_eq!(p.unattributed.reuse_commits, 1);
        assert_eq!(p.unattributed.cycles_saved, 1);

        let s20 = p.get(20).copied().unwrap();
        assert_eq!((s20.executed, s20.mispredicts, s20.events), (1, 0, 0));
        assert_eq!(p.len(), 2);
        assert!(p.get(11).is_none() && p.get(1 << 20).is_none());
        let pcs: Vec<u32> = p.sorted().iter().map(|r| r.0).collect();
        assert_eq!(pcs, vec![10, 20]);

        let t = p.totals();
        assert_eq!(t.executed, 4);
        assert_eq!(t.mispredicts, 2);
        let g = p.grand_totals();
        assert_eq!(g.reuse_commits, 2);
        assert_eq!(g.cycles_saved, 4);
        assert!((p.ci_exploited_fraction() - 0.5).abs() < 1e-12);
    }

    /// `(events_selected, events_reused)` of the branch row at `pc`.
    fn flags(p: &BranchProf, pc: u32) -> (u64, u64) {
        let s = p.get(pc).unwrap();
        (s.events_selected, s.events_reused)
    }

    #[test]
    fn classification_buckets() {
        let mut p = BranchProf::default();
        p.mispredict_without_event(); // not found
        p.open_event(10); // stays not found
        let b = p.open_event(20);
        p.mark_selected(b); // selected, no reuse
        let c = p.open_event(30);
        p.mark_selected(c);
        p.mark_reused(c); // reused
        assert_eq!(flags(&p, 10), (0, 0));
        assert_eq!(flags(&p, 20), (1, 0));
        assert_eq!(flags(&p, 30), (0, 1));
        assert_eq!(p.event_counts(), (2, 1, 1));
        assert_eq!(p.total_mispredictions, 4);
    }

    #[test]
    fn reuse_implies_selected() {
        let mut p = BranchProf::default();
        let e = p.open_event(10);
        p.mark_reused(e);
        p.mark_selected(e);
        assert_eq!(flags(&p, 10), (0, 1));
        assert_eq!(p.event_counts(), (0, 0, 1));
    }

    #[test]
    fn an_event_moves_from_selected_to_reused_once() {
        let mut p = BranchProf::default();
        let e = p.open_event(10);
        assert_eq!(flags(&p, 10), (0, 0));
        p.mark_selected(e);
        assert_eq!(flags(&p, 10), (1, 0));
        p.mark_reused(e);
        assert_eq!(flags(&p, 10), (0, 1), "the event leaves the selected count");
        p.mark_reused(e);
        assert_eq!(flags(&p, 10), (0, 1), "a second reuse changes nothing");
        assert_eq!(p.get(10).unwrap().events, 1);
        assert_eq!(p.event_counts(), (0, 0, 1));
    }

    #[test]
    fn fractions_sum_to_one() {
        let mut p = BranchProf::default();
        for i in 0..10 {
            let e = p.open_event(i);
            if i % 2 == 0 {
                p.mark_selected(e);
            }
            if i % 4 == 0 {
                p.mark_reused(e);
            }
        }
        let (a, b, c) = p.event_fractions();
        assert!((a + b + c - 1.0).abs() < 1e-12);
        assert_eq!(p.event_counts(), (5, 2, 3));
    }

    #[test]
    fn mark_reused_current_hits_latest_event() {
        let mut p = BranchProf::default();
        p.open_event(10);
        p.open_event(20);
        p.mark_reused_current();
        assert_eq!(flags(&p, 10), (0, 0));
        assert_eq!(flags(&p, 20), (0, 1));
        // No events at all: must be a no-op.
        let mut empty = BranchProf::default();
        empty.mark_reused_current();
        assert_eq!(empty.event_counts(), (0, 0, 0));
    }

    #[test]
    fn unknown_event_ids_are_ignored() {
        let mut p = BranchProf::default();
        p.mark_selected(99);
        p.mark_reused(99);
        assert_eq!(p.event_counts(), (0, 0, 0));
        assert!(p.is_empty());
    }

    #[test]
    fn empty_fractions_do_not_divide_by_zero() {
        let p = BranchProf::default();
        assert_eq!(p.event_fractions(), (0.0, 0.0, 0.0));
    }

    #[test]
    fn sorted_ranks_by_mispredictions() {
        let mut p = BranchProf::default();
        p.note_branch(7, true);
        p.note_branch(3, true);
        p.note_branch(3, true);
        p.note_branch(9, false);
        let rows = p.sorted();
        assert_eq!(rows[0].0, 3);
        assert_eq!(rows[1].0, 7);
        assert_eq!(rows[2].0, 9);
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
    }

    #[test]
    fn rcp_oracle_counters() {
        let mut p = BranchProf::default();
        p.set_static_truth(
            10,
            StaticTruth {
                rcp: Some(14),
                class: "ifthen",
            },
        );
        assert_eq!(p.static_truth(10).unwrap().rcp, Some(14));
        assert!(p.static_truth(11).is_none());
        p.note_rcp_check(10, true);
        p.note_rcp_check(10, true);
        p.note_rcp_check(10, false);
        let s = p.get(10).copied().unwrap();
        assert_eq!(s.rcp_checks, 3);
        assert_eq!(s.rcp_agree, 2);
        assert_eq!(p.rcp_totals(), (3, 2));
        assert!((p.rcp_agreement() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(BranchProf::default().rcp_agreement(), 1.0);
    }

    #[test]
    fn cidi_oracle_counters() {
        let mut p = BranchProf::default();
        let e = p.open_event(10);
        p.set_cidi_verdict(10, 14, "cidi");
        p.set_cidi_verdict(10, 15, "cidd");
        assert_eq!(p.cidi_verdict(10, 14), Some("cidi"));
        assert_eq!(p.cidi_verdict(10, 99), None);
        // CIDI + clean reuse: agree.
        p.note_cidi_outcome(Some(e), 14, true);
        // CIDI + failed validation: the headline disagreement.
        p.note_cidi_outcome(Some(e), 14, false);
        // CIDD + repair: agree. CIDD + clean: disagree.
        p.note_cidi_outcome(Some(e), 15, false);
        p.note_cidi_outcome(Some(e), 15, true);
        // No verdict for this pc, and no event at all: unclassified.
        p.note_cidi_outcome(Some(e), 99, true);
        p.note_cidi_outcome(None, 14, true);
        // Commit-stage repairs: a verdict-attributed one is excluded
        // from scoring as a mechanism repair; unattributed ones are
        // unclassified.
        p.note_cidi_mechanism_repair(Some(e), 14);
        p.note_cidi_mechanism_repair(Some(e), 99);
        p.note_cidi_mechanism_repair(None, 14);
        let s = p.get(10).copied().unwrap();
        assert_eq!(s.cidi_checks, 4);
        assert_eq!(s.cidi_agree, 2);
        assert_eq!(p.cidi_pred_failures, 1);
        assert_eq!(p.cidd_clean_reuses, 1);
        assert_eq!(p.cidi_mechanism_repairs, 1);
        assert_eq!(p.cidi_unclassified, 4);
        assert_eq!(p.cidi_totals(), (4, 2));
        assert!((p.cidi_agreement() - 0.5).abs() < 1e-12);
        assert_eq!(BranchProf::default().cidi_agreement(), 1.0);
    }

    #[test]
    fn unknown_events_spill_to_unattributed() {
        let mut p = BranchProf::default();
        // Event 42 was never opened: work must not vanish.
        p.note_replica_executed(Some(42));
        assert_eq!(p.unattributed.replicas_executed, 1);
        assert_eq!(p.totals().replicas_executed, 0);
        assert_eq!(p.grand_totals().replicas_executed, 1);
    }
}
