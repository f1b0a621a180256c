//! Typed trace events.
//!
//! Events carry structured payloads — no pre-formatted strings — so
//! sinks can render them as human text, JSONL, or Chrome
//! `trace_event` objects, and so building one costs nothing unless the
//! filter already matched.

use crate::json::JsonWriter;

/// Which part of the machine emitted an event. Doubles as the filter
/// dimension for `CFIR_TRACE sub=...`: only subsystems the simulator
/// emits exist, so a filter naming anything else is rejected rather
/// than tracing nothing. The discriminants are the Chrome sink's
/// thread ids and stay fixed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum Subsystem {
    Commit = 4,
    Vec = 5,
    Mem = 7,
    Flush = 9,
}

/// Every subsystem, in discriminant order.
pub const ALL_SUBSYSTEMS: [Subsystem; 4] = [
    Subsystem::Commit,
    Subsystem::Vec,
    Subsystem::Mem,
    Subsystem::Flush,
];

impl Subsystem {
    /// Stable lowercase name (filter syntax + JSON field).
    pub fn name(self) -> &'static str {
        match self {
            Subsystem::Commit => "commit",
            Subsystem::Vec => "vec",
            Subsystem::Mem => "mem",
            Subsystem::Flush => "flush",
        }
    }

    /// Parse a subsystem name (as used in `CFIR_TRACE sub=`).
    pub fn parse(s: &str) -> Option<Subsystem> {
        ALL_SUBSYSTEMS.into_iter().find(|sub| sub.name() == s)
    }

    /// Bit in the filter's subsystem mask.
    #[inline]
    pub fn bit(self) -> u16 {
        1 << (self as u16)
    }
}

/// What happened. Payloads are small and typed; the free-form `Note`
/// variant carries already-built strings from lazy call sites.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A strided load was turned into a vector seed.
    Vectorize {
        kind: &'static str,
        base: u64,
        stride: i64,
        count: u32,
    },
    /// A replica's prediction was checked at decode/commit.
    Validate { ok: bool, reason: &'static str },
    /// SRSMT entries were torn down.
    Teardown { reason: &'static str, entries: u32 },
    /// The pipeline flushed to repair mis-speculation.
    RepairFlush { resume_pc: u64, squashed: u64 },
    /// Wrong-path instructions squashed on a branch redirect.
    Squash { resume_pc: u64, squashed: u64 },
    /// A data-cache access missed.
    CacheMiss { addr: u64, latency: u32 },
    /// A replica value was reused at commit.
    Reuse { value: u64, waited: u64 },
    /// An instruction committed (`CFIR_TRACE=sub=commit` gives the commit stream).
    Commit { seq: u64, value: u64 },
    /// Free-form message (payload built lazily at the call site).
    Note { msg: String },
}

impl EventKind {
    /// Short stable name (Chrome trace `name`, JSONL `ev`).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Vectorize { .. } => "vectorize",
            EventKind::Validate { .. } => "validate",
            EventKind::Teardown { .. } => "teardown",
            EventKind::RepairFlush { .. } => "repair_flush",
            EventKind::Squash { .. } => "squash",
            EventKind::CacheMiss { .. } => "cache_miss",
            EventKind::Reuse { .. } => "reuse",
            EventKind::Commit { .. } => "commit",
            EventKind::Note { .. } => "note",
        }
    }

    /// Write the payload fields into an open JSON object.
    pub fn write_args(&self, w: &mut JsonWriter) {
        match self {
            EventKind::Vectorize {
                kind,
                base,
                stride,
                count,
            } => {
                w.field_str("kind", kind)
                    .field_u64("base", *base)
                    .key("stride")
                    .i64_val(*stride)
                    .field_u64("count", *count as u64);
            }
            EventKind::Validate { ok, reason } => {
                w.field_bool("ok", *ok).field_str("reason", reason);
            }
            EventKind::Teardown { reason, entries } => {
                w.field_str("reason", reason)
                    .field_u64("entries", *entries as u64);
            }
            EventKind::RepairFlush {
                resume_pc,
                squashed,
            } => {
                w.field_u64("resume_pc", *resume_pc)
                    .field_u64("squashed", *squashed);
            }
            EventKind::Squash {
                resume_pc,
                squashed,
            } => {
                w.field_u64("resume_pc", *resume_pc)
                    .field_u64("squashed", *squashed);
            }
            EventKind::CacheMiss { addr, latency } => {
                w.field_u64("addr", *addr)
                    .field_u64("latency", *latency as u64);
            }
            EventKind::Reuse { value, waited } => {
                w.field_u64("value", *value).field_u64("waited", *waited);
            }
            EventKind::Commit { seq, value } => {
                w.field_u64("seq", *seq).field_u64("value", *value);
            }
            EventKind::Note { msg } => {
                w.field_str("msg", msg);
            }
        }
    }

    /// Human rendering of the payload.
    pub fn render(&self) -> String {
        match self {
            EventKind::Vectorize {
                kind,
                base,
                stride,
                count,
            } => {
                format!("{kind} base={base:#x} stride={stride} count={count}")
            }
            EventKind::Validate { ok, reason } => {
                format!("{} ({reason})", if *ok { "ok" } else { "FAIL" })
            }
            EventKind::Teardown { reason, entries } => format!("{reason} entries={entries}"),
            EventKind::RepairFlush {
                resume_pc,
                squashed,
            } => {
                format!("resume={resume_pc:#x} squashed={squashed}")
            }
            EventKind::Squash {
                resume_pc,
                squashed,
            } => {
                format!("resume={resume_pc:#x} squashed={squashed}")
            }
            EventKind::CacheMiss { addr, latency } => format!("addr={addr:#x} lat={latency}"),
            EventKind::Reuse { value, waited } => format!("value={value:#x} waited={waited}"),
            EventKind::Commit { seq, value } => format!("seq={seq} value={value:#x}"),
            EventKind::Note { msg } => msg.clone(),
        }
    }
}

/// One timestamped event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Simulation cycle the event happened on.
    pub cycle: u64,
    /// Program counter of the instruction involved (0 if none).
    pub pc: u64,
    /// Emitting subsystem.
    pub sub: Subsystem,
    /// Payload.
    pub kind: EventKind,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn subsystem_names_round_trip() {
        for s in ALL_SUBSYSTEMS {
            assert_eq!(Subsystem::parse(s.name()), Some(s));
            assert_eq!(s.bit().count_ones(), 1);
        }
        // Chrome thread ids are the discriminants and must not move.
        let tids = ALL_SUBSYSTEMS.map(|s| s as u16);
        assert_eq!(tids, [4, 5, 7, 9]);
        assert_eq!(Subsystem::parse("bogus"), None);
        assert_eq!(Subsystem::parse("exec"), None);
    }

    #[test]
    fn args_are_valid_json() {
        let kinds = [
            EventKind::Vectorize {
                kind: "load",
                base: 0x1000,
                stride: -8,
                count: 4,
            },
            EventKind::Validate {
                ok: false,
                reason: "stride_mismatch",
            },
            EventKind::Note {
                msg: "hello \"world\"".into(),
            },
        ];
        for k in kinds {
            let mut w = JsonWriter::new();
            w.begin_obj();
            k.write_args(&mut w);
            w.end_obj();
            let text = w.finish();
            json::parse(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
        }
    }
}
