//! The observer seam: the tracer (`CFIR_TRACE`), the commit log (`cfir
//! run --trace N`) and the lifecycle recorder (`record_lifecycle`,
//! `Pipeline::enable_lifecycle`, `CFIR_PIPEVIEW`) behind one `Pipeline`
//! field. The stages report through one `#[inline]` hook per event,
//! declared below in stage order; a hook whose observer is off costs
//! one `Option` test, and payloads are closures that run only when an
//! observer takes them. The cosim checker, the perfect-BP oracle and
//! the stall attribution stay in `Pipeline`: they check, steer or count
//! the machine on every run rather than watch it optionally.

use crate::regfile::PhysId;
use crate::rob::RobEntry;
use crate::stats::SimStats;
use cfir_isa::Inst;
use cfir_obs::{
    EventKind, LifecycleLog, PipeviewSpec, StallCause, Subsystem, Tracer, WaitDetail, WaitEdgeKind,
};
use std::collections::VecDeque;

/// One committed instruction, as seen by the commit-log observer.
#[derive(Debug, Clone, Copy)]
pub struct CommitRecord {
    /// Cycle of the commit.
    pub cycle: u64,
    /// Dynamic sequence number.
    pub seq: u64,
    /// Static PC.
    pub pc: u32,
    /// The instruction.
    pub inst: Inst,
    /// Result value (stores: the stored data).
    pub value: u64,
    /// Whether a precomputed result was reused.
    pub reused: bool,
}

/// The lifecycle recorder and the bookkeeping only it needs. Boxed in
/// [`Observers`]: it is large and cold relative to the pipeline state.
struct Recorder {
    log: LifecycleLog,
    /// Physical register → lid of the instruction that produces it (0 =
    /// none; real lids start at 1). Gives every renamed source a true
    /// dataflow `Producer` edge, so the bottleneck DAG re-walk respects
    /// dependence chains the per-cycle stall cascade never blamed.
    /// Dense by physical register id and grown on demand, so
    /// `RegFileSize::Infinite` runs stay correct. A slot is only ever
    /// overwritten, by the next rename of the same register.
    prod_lid: Vec<u64>,
    /// Where `finish` writes the Konata document (`CFIR_PIPEVIEW`).
    pipeview_path: Option<String>,
}

impl Recorder {
    fn boxed(cap: usize, pipeview_path: Option<String>) -> Box<Recorder> {
        Box::new(Recorder {
            log: LifecycleLog::new(cap),
            prod_lid: Vec::new(),
            pipeview_path,
        })
    }
}

/// Every optional observer of one pipeline.
pub(crate) struct Observers {
    tracer: Option<Tracer>,
    /// Ring capacity and the most recent commits.
    commit_log: Option<(usize, VecDeque<CommitRecord>)>,
    recorder: Option<Box<Recorder>>,
}

impl Observers {
    /// Observers configured by the environment: the tracer from
    /// `CFIR_TRACE`, and the recorder from `CFIR_PIPEVIEW`, else from
    /// `record_lifecycle` with an unbounded ring (the bottleneck
    /// analysis needs the whole causal DAG).
    pub(crate) fn from_env(record_lifecycle: bool) -> Observers {
        let tracer = Tracer::from_env();
        let recorder = match PipeviewSpec::from_env() {
            Some(spec) => Some(Recorder::boxed(spec.cap, Some(spec.path))),
            None if record_lifecycle => Some(Recorder::boxed(0, None)),
            None => None,
        };
        Observers {
            tracer,
            commit_log: None,
            recorder,
        }
    }

    /// Replace the recorder (and any `CFIR_PIPEVIEW` path with it) by a
    /// fresh one keeping up to `cap` retired records (0 = unbounded).
    pub(crate) fn enable_lifecycle(&mut self, cap: usize) {
        self.recorder = Some(Recorder::boxed(cap, None));
    }

    /// Keep the last `n` commits.
    pub(crate) fn enable_commit_log(&mut self, n: usize) {
        self.commit_log = Some((n, VecDeque::with_capacity(n)));
    }

    /// Suffix every file this run writes (trace sinks, pipeview) with
    /// `scope`, so concurrent pipelines sharing one environment do not
    /// interleave. The text sink is unaffected.
    pub(crate) fn scope(&mut self, scope: &str) {
        if let Some(t) = &self.tracer {
            self.tracer = Some(Tracer::new(t.filter().scoped(scope)));
        }
        if let Some(p) = self
            .recorder
            .as_mut()
            .and_then(|r| r.pipeview_path.as_mut())
        {
            *p = cfir_obs::filter::scope_path(p, scope);
        }
    }

    pub(crate) fn lifecycle(&self) -> Option<&LifecycleLog> {
        self.recorder.as_ref().map(|r| &r.log)
    }

    pub(crate) fn commit_log(&self) -> impl Iterator<Item = &CommitRecord> {
        self.commit_log.iter().flat_map(|(_, q)| q.iter())
    }

    // ----------------------------------------------------------------
    // Hooks, in stage order
    // ----------------------------------------------------------------

    /// An instruction was fetched; it reaches rename at `ready_at`.
    /// Returns its lifecycle id (0 when recording is off).
    #[inline]
    pub(crate) fn fetch(&mut self, pc: u32, inst: Inst, cycle: u64, ready_at: u64) -> u64 {
        match &mut self.recorder {
            Some(r) => r
                .log
                .begin_fetch(pc as u64, || inst.to_string(), cycle, ready_at),
            None => 0,
        }
    }

    /// The instruction entered the window as sequence number `seq`.
    #[inline]
    pub(crate) fn dispatch(&mut self, lid: u64, seq: u64, cycle: u64) {
        if let Some(r) = &mut self.recorder {
            r.log.note_dispatch(lid, seq, cycle);
        }
    }

    /// The instruction was renamed: a `Producer` edge to the recorded
    /// producer of each source, then `dest` is produced by `lid`.
    #[inline]
    pub(crate) fn rename(
        &mut self,
        lid: u64,
        srcs: [Option<PhysId>; 2],
        dest: Option<PhysId>,
        cycle: u64,
    ) {
        let Some(r) = &mut self.recorder else {
            return;
        };
        for p in srcs.into_iter().flatten() {
            if let Some(&plid) = r.prod_lid.get(p as usize).filter(|&&l| l != 0) {
                r.log.edge(
                    lid,
                    WaitEdgeKind::Producer,
                    Some(plid),
                    WaitDetail::None,
                    cycle,
                );
            }
        }
        if let Some(p) = dest {
            if r.prod_lid.len() <= p as usize {
                r.prod_lid.resize(p as usize + 1, 0);
            }
            r.prod_lid[p as usize] = lid;
        }
    }

    /// `lid` waited this cycle on `kind`; `target` names the instruction
    /// waited on, when there is one.
    #[inline]
    pub(crate) fn wait_edge(
        &mut self,
        lid: u64,
        kind: WaitEdgeKind,
        target: impl FnOnce() -> Option<u64>,
        detail: WaitDetail,
        cycle: u64,
    ) {
        if let Some(r) = &mut self.recorder {
            r.log.edge(lid, kind, target(), detail, cycle);
        }
    }

    /// An instruction or replica issued.
    #[inline]
    pub(crate) fn issue(&mut self, lid: u64, cycle: u64) {
        if let Some(r) = &mut self.recorder {
            r.log.note_issue(lid, cycle);
        }
    }

    /// An instruction's result is available.
    #[inline]
    pub(crate) fn complete(&mut self, lid: u64, cycle: u64) {
        if let Some(r) = &mut self.recorder {
            r.log.note_complete(lid, cycle);
        }
    }

    /// An instruction took a precomputed value (`true`), or a pending
    /// reuse fell back to normal execution (`false`).
    #[inline]
    pub(crate) fn reused(&mut self, lid: u64, reused: bool) {
        if let Some(r) = &mut self.recorder {
            r.log.set_reused(lid, reused);
        }
    }

    /// An instruction was squashed.
    #[inline]
    pub(crate) fn squash(&mut self, lid: u64, cycle: u64) {
        if let Some(r) = &mut self.recorder {
            r.log.note_squash(lid, cycle);
        }
    }

    /// `e` committed: the trace's commit event, the commit log and the
    /// recorder's retire (with its `useful` slot charge).
    #[inline]
    pub(crate) fn commit(&mut self, e: &RobEntry, cycle: u64) {
        self.trace(Subsystem::Commit, e.pc as u64, cycle, || {
            EventKind::Commit {
                seq: e.seq,
                value: e.value,
            }
        });
        if let Some((cap, q)) = &mut self.commit_log {
            if q.len() == *cap {
                q.pop_front();
            }
            q.push_back(CommitRecord {
                cycle,
                seq: e.seq,
                pc: e.pc,
                inst: e.inst,
                value: e.value,
                reused: e.reuses(),
            });
        }
        if let Some(r) = &mut self.recorder {
            r.log.note_commit(e.lid, cycle);
        }
    }

    /// The replica engine started a replica of `inst` at word PC `pc`.
    /// Returns its lifecycle id (0 when recording is off).
    #[inline]
    pub(crate) fn replica_begin(&mut self, pc: u64, inst: Inst, cycle: u64) -> u64 {
        match &mut self.recorder {
            Some(r) => r.log.begin_replica(pc, || inst.to_string(), cycle),
            None => 0,
        }
    }

    /// A replica finished: its value landed in the entry (`delivered`),
    /// or it died.
    #[inline]
    pub(crate) fn replica_end(&mut self, lid: u64, cycle: u64, delivered: bool) {
        if let Some(r) = &mut self.recorder {
            r.log.finish_replica(lid, cycle, delivered);
        }
    }

    /// The cycle's `slots` idle commit slots were charged to `cause`.
    /// The window head (`head`, none when the window is empty) absorbs
    /// them, plus the causal wait-edge `edge` computes, if any.
    #[inline]
    pub(crate) fn idle(
        &mut self,
        head: Option<u64>,
        cause: StallCause,
        slots: u64,
        edge: impl FnOnce() -> Option<(WaitEdgeKind, Option<u64>)>,
        cycle: u64,
    ) {
        let Some(r) = &mut self.recorder else {
            return;
        };
        r.log.charge(head, cause, slots);
        if let (Some(lid), Some((kind, target))) = (head, edge()) {
            r.log.edge(lid, kind, target, WaitDetail::None, cycle);
        }
    }

    /// Emit a trace event; `payload` runs only when the filter matches.
    #[inline]
    pub(crate) fn trace(
        &self,
        sub: Subsystem,
        pc: u64,
        cycle: u64,
        payload: impl FnOnce() -> EventKind,
    ) {
        if let Some(t) = &self.tracer {
            if t.enabled(sub, pc, cycle) {
                t.emit(sub, pc, cycle, payload());
            }
        }
    }

    /// End of run: fold the recorder into `stats` (record counts, the
    /// exact wait-sum reconciliation with the stall breakdown, the
    /// critical path), write the `CFIR_PIPEVIEW` document, flush the
    /// tracer.
    pub(crate) fn finish(&self, stats: &mut SimStats, commit_width: u64, window: usize) {
        if let Some(r) = &self.recorder {
            let log = &r.log;
            stats.lifecycle_records = log.len() as u64 + log.dropped();
            stats.lifecycle_dropped = log.dropped();
            // Per-instruction wait sums reconcile exactly with the
            // aggregate stall attribution: recording starts at cycle 0.
            if let Err(e) = log.reconcile(&stats.stall) {
                panic!("lifecycle attribution broken: {e}");
            }
            stats.bottleneck = Some(cfir_obs::critpath::analyze(log, commit_width, window));
            if let Some(path) = &r.pipeview_path {
                if let Err(e) = std::fs::write(path, log.render_konata()) {
                    eprintln!("cfir-sim: could not write pipeview {path}: {e}");
                }
            }
        }
        if let Some(t) = &self.tracer {
            t.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfir_obs::sink::Sink;
    use cfir_obs::{TraceEvent, TraceFilter};
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    struct Capture(Rc<RefCell<Vec<TraceEvent>>>);

    impl Sink for Capture {
        fn emit(&mut self, ev: &TraceEvent) {
            self.0.borrow_mut().push(ev.clone());
        }
        fn flush(&mut self) {}
    }

    fn observers(tracer: Option<Tracer>) -> Observers {
        Observers {
            tracer,
            commit_log: None,
            recorder: None,
        }
    }

    #[test]
    fn trace_payloads_are_lazy_and_filtered() {
        let mut f = TraceFilter::all();
        f.pc = Some(0x10);
        let events = Rc::new(RefCell::new(Vec::new()));
        let obs = observers(Some(Tracer::with_sink(
            f,
            Box::new(Capture(events.clone())),
        )));

        let built = Cell::new(0u32);
        let payload = |v: u64| {
            built.set(built.get() + 1);
            EventKind::Commit { seq: v, value: v }
        };
        obs.trace(Subsystem::Commit, 0x10, 1, || payload(7));
        obs.trace(Subsystem::Commit, 0x11, 2, || payload(8)); // filtered: wrong pc
        assert_eq!(
            built.get(),
            1,
            "payload must only build when the filter matches"
        );
        assert_eq!(events.borrow().len(), 1);
        assert_eq!(events.borrow()[0].cycle, 1);

        observers(None).trace(Subsystem::Commit, 0x10, 1, || payload(9));
        assert_eq!(built.get(), 1, "disabled tracer must not build payloads");
    }
}
