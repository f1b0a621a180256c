//! The [`Tracer`]: a parse-once filter plus a sink.
//!
//! The simulator owns an `Option<Tracer>` built by [`Tracer::from_env`]
//! at startup from `CFIR_TRACE`, the one variable that configures it
//! (syntax in [`TraceFilter::parse`]; a malformed spec panics loudly).
//! The environment is consulted exactly once per process (cached in a
//! `OnceLock`), so hot-path trace sites never touch `env::var`.
//! Emission goes through interior mutability so trace sites can fire
//! from `&self` contexts.

use std::cell::RefCell;
use std::sync::OnceLock;

use crate::event::{EventKind, Subsystem, TraceEvent};
use crate::filter::{SinkSpec, TraceFilter};
use crate::sink::{ChromeSink, JsonlSink, Sink, TextSink};

/// A trace filter bound to a sink. Cheap to query, interior-mutable to
/// emit (sinks buffer).
pub struct Tracer {
    filter: TraceFilter,
    sink: RefCell<Box<dyn Sink>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("filter", &self.filter)
            .finish_non_exhaustive()
    }
}

fn build_sink(filter: &TraceFilter) -> Box<dyn Sink> {
    match &filter.sink {
        SinkSpec::Text => Box::new(TextSink),
        SinkSpec::Jsonl(path) => match JsonlSink::create(path) {
            Ok(s) => Box::new(s),
            Err(e) => panic!("CFIR_TRACE: cannot open jsonl sink {path}: {e}"),
        },
        SinkSpec::Chrome(path) => Box::new(ChromeSink::create(path, filter.cap)),
    }
}

/// Resolve the `CFIR_TRACE` value into a filter (`None` = unset).
/// Pure so it can be tested without mutating the process environment.
fn resolve(trace: Option<&str>) -> Result<Option<TraceFilter>, String> {
    trace.map(TraceFilter::parse).transpose()
}

static ENV_FILTER: OnceLock<Option<TraceFilter>> = OnceLock::new();

impl Tracer {
    /// Tracer with the sink described by the filter.
    pub fn new(filter: TraceFilter) -> Tracer {
        let sink = build_sink(&filter);
        Tracer {
            filter,
            sink: RefCell::new(sink),
        }
    }

    /// Tracer with an explicit sink (tests, embedding).
    pub fn with_sink(filter: TraceFilter, sink: Box<dyn Sink>) -> Tracer {
        Tracer {
            filter,
            sink: RefCell::new(sink),
        }
    }

    /// Build a tracer from `CFIR_TRACE`.
    ///
    /// The environment is read and the filter parsed **once per
    /// process**; later calls reuse the cached result (each call still
    /// gets its own sink). Returns `None` — the zero-overhead path —
    /// when the variable is unset. Panics with a descriptive message
    /// on a malformed value, so a typo'd filter fails the run instead
    /// of silently tracing nothing.
    pub fn from_env() -> Option<Tracer> {
        let cached = ENV_FILTER.get_or_init(|| {
            let trace = std::env::var("CFIR_TRACE").ok();
            resolve(trace.as_deref()).unwrap_or_else(|e| panic!("CFIR_TRACE: {e}"))
        });
        cached.clone().map(Tracer::new)
    }

    /// The bound filter.
    pub fn filter(&self) -> &TraceFilter {
        &self.filter
    }

    /// Would an event at (`sub`, `pc`, `cycle`) be emitted? Hot-path
    /// gate: a couple of integer compares.
    #[inline]
    pub fn enabled(&self, sub: Subsystem, pc: u64, cycle: u64) -> bool {
        self.filter.matches(sub, pc, cycle)
    }

    /// Emit an event. Callers are expected to have checked
    /// [`enabled`](Self::enabled) first, and to build the event only
    /// after that check passed.
    pub fn emit(&self, sub: Subsystem, pc: u64, cycle: u64, kind: EventKind) {
        self.sink.borrow_mut().emit(&TraceEvent {
            cycle,
            pc,
            sub,
            kind,
        });
    }

    /// Flush the sink (buffered sinks write their document here).
    pub fn flush(&self) {
        self.sink.borrow_mut().flush();
    }
}

impl Drop for Tracer {
    fn drop(&mut self) {
        self.sink.get_mut().flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    struct FlushCount(Rc<Cell<u32>>);

    impl Sink for FlushCount {
        fn emit(&mut self, _: &TraceEvent) {}
        fn flush(&mut self) {
            self.0.set(self.0.get() + 1);
        }
    }

    #[test]
    fn resolve_precedence() {
        let f = resolve(Some("pc=0x10")).unwrap().unwrap();
        assert_eq!(f.pc, Some(0x10));
        // The boolean form traces everything.
        assert_eq!(resolve(Some("1")).unwrap(), Some(TraceFilter::all()));
        // Nothing set: tracing disabled.
        assert!(resolve(None).unwrap().is_none());
        // Malformed specs are loud, a bare number included.
        assert!(resolve(Some("sub=bogus")).is_err());
        assert!(resolve(Some("10,0,3000")).is_err());
    }

    #[test]
    fn drop_flushes_sink() {
        let flushes = Rc::new(Cell::new(0));
        let tracer = Tracer::with_sink(TraceFilter::all(), Box::new(FlushCount(flushes.clone())));
        tracer.emit(Subsystem::Vec, 0, 0, EventKind::Note { msg: "x".into() });
        drop(tracer);
        assert_eq!(flushes.get(), 1);
    }
}
