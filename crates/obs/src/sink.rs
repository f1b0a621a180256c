//! Trace sinks: human text, JSONL, and Chrome `trace_event` JSON.
//!
//! All sinks serialize with the hand-rolled writer in [`crate::json`]
//! — no serde. The Chrome format is the legacy "JSON object with a
//! `traceEvents` array" flavor, which both `chrome://tracing` and
//! Perfetto open directly.

use std::collections::VecDeque;
use std::io::Write;

use crate::event::{TraceEvent, ALL_SUBSYSTEMS};
use crate::json::JsonWriter;

/// Something that consumes trace events.
pub trait Sink {
    /// Consume one event.
    fn emit(&mut self, ev: &TraceEvent);
    /// Flush buffered output (end of run).
    fn flush(&mut self);
}

/// Human-readable lines on stderr:
/// `[cycle 123] vec pc=0x10 validate: ok (stride)`.
#[derive(Debug, Default)]
pub struct TextSink;

impl Sink for TextSink {
    fn emit(&mut self, ev: &TraceEvent) {
        eprintln!(
            "[cycle {}] {} pc={:#x} {}: {}",
            ev.cycle,
            ev.sub.name(),
            ev.pc,
            ev.kind.name(),
            ev.kind.render()
        );
    }

    fn flush(&mut self) {}
}

fn event_line(ev: &TraceEvent) -> String {
    let mut w = JsonWriter::new();
    w.begin_obj()
        .field_u64("cycle", ev.cycle)
        .field_u64("pc", ev.pc)
        .field_str("sub", ev.sub.name())
        .field_str("ev", ev.kind.name())
        .key("args");
    w.begin_obj();
    ev.kind.write_args(&mut w);
    w.end_obj();
    w.end_obj();
    w.finish()
}

/// One JSON object per line.
pub struct JsonlSink {
    out: Box<dyn Write>,
}

impl JsonlSink {
    /// Write to a file at `path` (truncates).
    pub fn create(path: &str) -> std::io::Result<Self> {
        let f = std::fs::File::create(path)?;
        Ok(JsonlSink {
            out: Box::new(std::io::BufWriter::new(f)),
        })
    }

    /// Serialize one event as its JSONL line (no trailing newline).
    pub fn line(ev: &TraceEvent) -> String {
        event_line(ev)
    }
}

impl Sink for JsonlSink {
    fn emit(&mut self, ev: &TraceEvent) {
        let _ = writeln!(self.out, "{}", event_line(ev));
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

/// Chrome `trace_event` sink. Events are held in a bounded ring buffer
/// (oldest dropped first) and written as one JSON document on flush,
/// with a thread per subsystem so Perfetto lays tracks out nicely.
pub struct ChromeSink {
    ring: VecDeque<TraceEvent>,
    cap: usize,
    dropped: u64,
    path: String,
}

impl ChromeSink {
    /// Buffer up to `cap` events, writing `path` on flush.
    pub fn create(path: &str, cap: usize) -> Self {
        ChromeSink {
            ring: VecDeque::with_capacity(cap.min(1 << 20)),
            cap: cap.max(1),
            dropped: 0,
            path: path.to_string(),
        }
    }

    /// Events dropped because the ring filled.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Render the buffered events as a Chrome trace JSON document.
    pub fn render(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj().key("traceEvents").begin_arr();
        // Thread-name metadata: one "thread" per subsystem.
        for sub in ALL_SUBSYSTEMS {
            w.begin_obj()
                .field_str("name", "thread_name")
                .field_str("ph", "M")
                .field_u64("pid", 0)
                .field_u64("tid", sub as u64)
                .key("args");
            w.begin_obj().field_str("name", sub.name()).end_obj();
            w.end_obj();
        }
        for ev in &self.ring {
            w.begin_obj()
                .field_str("name", ev.kind.name())
                .field_str("cat", ev.sub.name())
                .field_str("ph", "i")
                .field_u64("ts", ev.cycle)
                .field_u64("pid", 0)
                .field_u64("tid", ev.sub as u64)
                .field_str("s", "t")
                .key("args");
            w.begin_obj().field_u64("pc", ev.pc);
            ev.kind.write_args(&mut w);
            w.end_obj();
            w.end_obj();
        }
        w.end_arr()
            .field_str("displayTimeUnit", "ns")
            .field_u64("droppedEvents", self.dropped);
        w.end_obj();
        w.finish()
    }
}

impl Sink for ChromeSink {
    fn emit(&mut self, ev: &TraceEvent) {
        if self.ring.len() == self.cap {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(ev.clone());
    }

    fn flush(&mut self) {
        if let Err(e) = std::fs::write(&self.path, self.render()) {
            eprintln!("cfir-obs: cannot write chrome trace {}: {e}", self.path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, Subsystem};
    use crate::json;

    fn ev(cycle: u64) -> TraceEvent {
        TraceEvent {
            cycle,
            pc: 0x10,
            sub: Subsystem::Vec,
            kind: EventKind::Validate {
                ok: true,
                reason: "stride",
            },
        }
    }

    #[test]
    fn jsonl_lines_parse() {
        let line = JsonlSink::line(&ev(42));
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("cycle").unwrap().as_u64(), Some(42));
        assert_eq!(v.get("sub").unwrap().as_str(), Some("vec"));
        assert_eq!(v.get("ev").unwrap().as_str(), Some("validate"));
        assert_eq!(
            v.get("args").unwrap().get("reason").unwrap().as_str(),
            Some("stride")
        );
    }

    #[test]
    fn chrome_document_parses_and_drops_oldest() {
        let mut s = ChromeSink::create("/dev/null", 4);
        for c in 0..10 {
            s.emit(&ev(c));
        }
        assert_eq!(s.dropped(), 6);
        let doc = s.render();
        let v = json::parse(&doc).unwrap();
        let evs = v.get("traceEvents").unwrap().as_arr().unwrap();
        // 4 thread-name metadata records + 4 retained events.
        assert_eq!(evs.len(), ALL_SUBSYSTEMS.len() + 4);
        let first_real = &evs[ALL_SUBSYSTEMS.len()];
        assert_eq!(
            first_real.get("ts").unwrap().as_u64(),
            Some(6),
            "oldest retained is cycle 6"
        );
        assert_eq!(first_real.get("ph").unwrap().as_str(), Some("i"));
        assert_eq!(v.get("droppedEvents").unwrap().as_u64(), Some(6));
    }
}
