//! In-memory span recorder for the traced run.
//!
//! Every call the benchmark makes into a workspace crate is wrapped in
//! a span named `<layer>.<call>`. Spans nest strictly (a stack), so a
//! span's self time is its duration minus its children's durations,
//! and the self times of one tree sum exactly to its root's duration.
//! When the recorder is off, `enter`/`exit` return before reading the
//! clock, so untraced and traced passes execute the same code.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `sim.run`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span; `None` for a root.
    pub parent: Option<usize>,
    /// Job the span belongs to (its index in the workload, from 1;
    /// 0 outside any job).
    pub job: u32,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    /// The layer: the span name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// The recorder. Create it [`Tracer::on`] for the traced run and
/// [`Tracer::off`] for the untraced one.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: u32,
}

impl Tracer {
    /// A recorder that keeps no spans.
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    /// A recorder that keeps every span in memory.
    pub fn on() -> Tracer {
        Tracer::new(true)
    }

    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            job: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Tag the spans opened from now on with `job`.
    pub fn set_job(&mut self, job: u32) {
        self.job = job;
    }

    /// Open a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        self.spans.push(Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.open.last().copied(),
            job: self.job,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let i = self.open.pop().expect("exit without a matching enter");
        self.spans[i].end_ns = self.now();
    }

    /// Number of open spans, to restore with [`Tracer::close_to`].
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Close open spans until `depth` remain (after a caught panic).
    pub fn close_to(&mut self, depth: usize) {
        while self.open.len() > depth {
            self.exit();
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// The recorded spans, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Index of the root of each span's tree.
fn roots(spans: &[Span]) -> Vec<usize> {
    let mut root = Vec::with_capacity(spans.len());
    for (i, s) in spans.iter().enumerate() {
        // A parent is always opened (and so indexed) before its child.
        root.push(s.parent.map_or(i, |p| root[p]));
    }
    root
}

/// Per span name: (calls, total seconds, self seconds), over the trees
/// whose root is named `root`.
pub fn span_table(spans: &[Span], root: &str) -> BTreeMap<&'static str, (u64, f64, f64)> {
    let roots = roots(spans);
    let mut child_secs = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_secs[p] += s.secs();
        }
    }
    let mut t: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if spans[roots[i]].name != root {
            continue;
        }
        let e = t.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.secs();
        e.2 += s.secs() - child_secs[i];
    }
    t
}

/// Render the spans as a Chrome trace (`chrome://tracing`, Perfetto):
/// a `{"traceEvents": [...]}` document of complete (`"ph": "X"`)
/// events, one per line, timestamps in microseconds.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(-1, |p| p as i64);
        let _ = write!(
            out,
            "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
             \"pid\": 1, \"tid\": 1, \"args\": {{\"id\": {i}, \"parent\": {parent}, \"job\": {}}}}}",
            s.name,
            s.layer(),
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.job,
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_of_a_tree_sum_to_its_root() {
        let mut t = Tracer::on();
        t.enter("bench.pass");
        t.time("sim.new", || std::hint::black_box(1 + 1));
        t.enter("sim.run");
        t.time("obs.snapshot", || std::hint::black_box(2 + 2));
        t.exit();
        t.exit();
        t.time("bench.probe", || ());
        let table = span_table(t.spans(), "bench.pass");
        assert_eq!(table.len(), 4, "the probe tree is excluded");
        let self_sum: f64 = table.values().map(|e| e.2).sum();
        let root = table["bench.pass"].1;
        assert!((self_sum - root).abs() < 1e-9, "{self_sum} vs {root}");
    }

    #[test]
    fn an_off_recorder_records_no_spans() {
        let mut t = Tracer::off();
        t.enter("bench.pass");
        t.time("sim.new", || ());
        t.exit();
        assert!(t.spans().is_empty());
    }

    #[test]
    fn chrome_trace_is_one_event_per_line() {
        let mut t = Tracer::on();
        t.set_job(3);
        t.time("sim.run", || ());
        let doc = chrome_trace(t.spans());
        assert!(doc.starts_with("{\"traceEvents\": [\n"));
        assert!(doc.contains("\"name\": \"sim.run\", \"cat\": \"sim\", \"ph\": \"X\""));
        assert!(doc.contains("\"job\": 3"));
        assert_eq!(doc.lines().count(), 3);
    }
}
