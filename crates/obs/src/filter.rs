//! The `CFIR_TRACE` filter — parsed **once** at startup.
//!
//! A spec is space-separated `key=value` pairs, any subset of
//!
//! - `pc=N` — only events for this program counter (decimal or `0x` hex)
//! - `cycle=LO..HI` — only events in this half-open cycle range
//! - `sub=a+b+c` — only these subsystems (`vec`, `commit`, `exec`, …)
//! - `sink=text` | `sink=jsonl:PATH` | `sink=chrome:PATH` — output format
//! - `cap=N` — ring-buffer capacity for buffered sinks
//!
//! e.g. `CFIR_TRACE='sub=vec+flush cycle=0..50000 sink=chrome:trace.json'`.
//!
//! `CFIR_TRACE=1` (or `true`, or an empty value) traces everything to
//! the text sink. Anything else that is not `key=value` pairs is
//! rejected.

use crate::event::Subsystem;

/// Where trace output goes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum SinkSpec {
    /// Human-readable lines on stderr.
    #[default]
    Text,
    /// One JSON object per line, appended to a file.
    Jsonl(String),
    /// Chrome `trace_event` JSON (open in Perfetto / chrome://tracing).
    Chrome(String),
}

/// Parsed trace filter. Matching is a couple of integer compares — no
/// allocation, no environment access.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceFilter {
    /// Only this PC (None = all PCs).
    pub pc: Option<u64>,
    /// Cycle range `[lo, hi)`.
    pub cycle_lo: u64,
    /// End of the cycle range (exclusive).
    pub cycle_hi: u64,
    /// Bitmask of enabled subsystems ([`Subsystem::bit`]).
    pub subs: u16,
    /// Output sink.
    pub sink: SinkSpec,
    /// Ring-buffer capacity for buffered sinks.
    pub cap: usize,
}

impl Default for TraceFilter {
    fn default() -> Self {
        TraceFilter {
            pc: None,
            cycle_lo: 0,
            cycle_hi: u64::MAX,
            subs: u16::MAX,
            sink: SinkSpec::Text,
            cap: 1 << 16,
        }
    }
}

/// The keyed-form keys `CFIR_TRACE` understands, quoted in parse
/// errors so a typo tells you what would have worked.
pub const VALID_KEYS: &str = "pc=, cycle=, sub=, sink=, cap=";

/// Suffix `path` with `.<scope>` before its extension
/// (`trace.jsonl` → `trace.<scope>.jsonl`; no extension → appended).
/// Every per-job artifact (trace sinks via [`TraceFilter::scoped`], the
/// `CFIR_PIPEVIEW` file) scopes through it, so all scope the same way.
pub fn scope_path(path: &str, scope: &str) -> String {
    match path.rsplit_once('.') {
        // Only treat the final dot as an extension separator if it is
        // inside the file name, not a parent directory.
        Some((stem, ext)) if !ext.contains('/') => format!("{stem}.{scope}.{ext}"),
        _ => format!("{path}.{scope}"),
    }
}

fn parse_int(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

impl TraceFilter {
    /// Match-everything filter (`CFIR_TRACE=1`).
    pub fn all() -> Self {
        Self::default()
    }

    /// Parse a `CFIR_TRACE` value. Returns `Err` with a description on
    /// malformed input so startup can fail loudly instead of silently
    /// tracing nothing.
    pub fn parse(spec: &str) -> Result<TraceFilter, String> {
        let spec = spec.trim();
        let mut f = TraceFilter::default();
        if spec.is_empty() || spec == "1" || spec.eq_ignore_ascii_case("true") {
            return Ok(f);
        }
        for tok in spec.split_whitespace() {
            let (key, val) = tok.split_once('=').ok_or_else(|| {
                format!("expected key=value, got `{tok}` in CFIR_TRACE (valid keys: {VALID_KEYS})")
            })?;
            match key {
                "pc" => {
                    f.pc = Some(
                        parse_int(val).ok_or_else(|| format!("bad pc `{val}` in CFIR_TRACE"))?,
                    )
                }
                "cycle" => {
                    let (lo, hi) = val
                        .split_once("..")
                        .ok_or_else(|| format!("cycle wants LO..HI, got `{val}`"))?;
                    f.cycle_lo = if lo.is_empty() {
                        0
                    } else {
                        parse_int(lo).ok_or_else(|| format!("bad cycle lo `{lo}`"))?
                    };
                    f.cycle_hi = if hi.is_empty() {
                        u64::MAX
                    } else {
                        parse_int(hi).ok_or_else(|| format!("bad cycle hi `{hi}`"))?
                    };
                }
                "sub" => {
                    let mut mask = 0u16;
                    for name in val.split(['+', ',']) {
                        let sub = Subsystem::parse(name)
                            .ok_or_else(|| format!("unknown subsystem `{name}` in CFIR_TRACE"))?;
                        mask |= sub.bit();
                    }
                    f.subs = mask;
                }
                "sink" => {
                    f.sink = match val.split_once(':') {
                        None if val == "text" => SinkSpec::Text,
                        Some(("jsonl", path)) => SinkSpec::Jsonl(path.to_string()),
                        Some(("chrome", path)) => SinkSpec::Chrome(path.to_string()),
                        _ => {
                            return Err(format!(
                                "sink wants text | jsonl:PATH | chrome:PATH, got `{val}`"
                            ))
                        }
                    };
                }
                "cap" => {
                    f.cap = parse_int(val).ok_or_else(|| format!("bad cap `{val}`"))? as usize;
                }
                _ => {
                    return Err(format!(
                        "unknown CFIR_TRACE key `{key}` in `{tok}` (valid keys: {VALID_KEYS})"
                    ))
                }
            }
        }
        Ok(f)
    }

    /// A copy of this filter whose file sinks are suffixed with
    /// `.<scope>` before the extension (`trace.jsonl` →
    /// `trace.<scope>.jsonl`). Used by the suite harness so parallel
    /// jobs sharing one `CFIR_TRACE` value write distinct files
    /// instead of interleaving into one.
    pub fn scoped(&self, scope: &str) -> TraceFilter {
        let mut f = self.clone();
        f.sink = match &self.sink {
            SinkSpec::Text => SinkSpec::Text,
            SinkSpec::Jsonl(p) => SinkSpec::Jsonl(scope_path(p, scope)),
            SinkSpec::Chrome(p) => SinkSpec::Chrome(scope_path(p, scope)),
        };
        f
    }

    /// Does an event at (`sub`, `pc`, `cycle`) pass the filter?
    #[inline]
    pub fn matches(&self, sub: Subsystem, pc: u64, cycle: u64) -> bool {
        (self.subs & sub.bit()) != 0
            && cycle >= self.cycle_lo
            && cycle < self.cycle_hi
            && self.pc.is_none_or(|want| want == pc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boolean_values_match_everything() {
        for spec in ["1", "true", "", "  "] {
            let f = TraceFilter::parse(spec).unwrap();
            assert!(f.matches(Subsystem::Vec, 0, 0));
            assert!(f.matches(Subsystem::Commit, 999, u64::MAX - 1));
        }
    }

    #[test]
    fn keyed_form() {
        let f = TraceFilter::parse("pc=0x10 cycle=100..200 sub=vec+flush").unwrap();
        assert_eq!(f.pc, Some(0x10));
        assert_eq!((f.cycle_lo, f.cycle_hi), (100, 200));
        assert!(f.matches(Subsystem::Vec, 0x10, 150));
        assert!(f.matches(Subsystem::Flush, 0x10, 150));
        assert!(!f.matches(Subsystem::Commit, 0x10, 150));
        assert!(!f.matches(Subsystem::Vec, 0x10, 99));
        assert!(!f.matches(Subsystem::Vec, 0x11, 150));
    }

    #[test]
    fn open_ended_cycle_ranges() {
        let f = TraceFilter::parse("cycle=500..").unwrap();
        assert_eq!((f.cycle_lo, f.cycle_hi), (500, u64::MAX));
        let f = TraceFilter::parse("cycle=..500").unwrap();
        assert_eq!((f.cycle_lo, f.cycle_hi), (0, 500));
    }

    #[test]
    fn sinks_and_cap() {
        assert_eq!(
            TraceFilter::parse("sink=text").unwrap().sink,
            SinkSpec::Text
        );
        assert_eq!(
            TraceFilter::parse("sink=jsonl:/tmp/t.jsonl").unwrap().sink,
            SinkSpec::Jsonl("/tmp/t.jsonl".into())
        );
        assert_eq!(
            TraceFilter::parse("sink=chrome:trace.json sub=vec")
                .unwrap()
                .sink,
            SinkSpec::Chrome("trace.json".into())
        );
        assert_eq!(TraceFilter::parse("cap=128").unwrap().cap, 128);
        assert!(TraceFilter::parse("sink=xml:out").is_err());
    }

    #[test]
    fn scoped_suffixes_file_sinks_only() {
        let f = TraceFilter::parse("sink=jsonl:/tmp/a.b/trace.jsonl").unwrap();
        assert_eq!(
            f.scoped("0042").sink,
            SinkSpec::Jsonl("/tmp/a.b/trace.0042.jsonl".into())
        );
        let f = TraceFilter::parse("sink=chrome:trace.json").unwrap();
        assert_eq!(f.scoped("x").sink, SinkSpec::Chrome("trace.x.json".into()));
        // No extension: append the scope.
        let f = TraceFilter::parse("sink=jsonl:/tmp/dir.d/trace").unwrap();
        assert_eq!(
            f.scoped("y").sink,
            SinkSpec::Jsonl("/tmp/dir.d/trace.y".into())
        );
        // Text sink is untouched.
        let f = TraceFilter::parse("sink=text pc=7").unwrap();
        let g = f.scoped("z");
        assert_eq!(g.sink, SinkSpec::Text);
        assert_eq!(g.pc, Some(7));
    }

    #[test]
    fn errors_are_loud() {
        assert!(TraceFilter::parse("sub=bogus").is_err());
        assert!(TraceFilter::parse("cycle=10").is_err());
        assert!(TraceFilter::parse("frequency=11").is_err());
        assert!(TraceFilter::parse("pc=zebra").is_err());
        assert!(TraceFilter::parse("0x20").is_err());
    }

    #[test]
    fn errors_name_the_token_and_list_valid_keys() {
        // Unknown key: names both the key and the full token, and
        // lists what would have worked.
        let err = TraceFilter::parse("frequency=11").unwrap_err();
        assert!(err.contains("`frequency`"), "{err}");
        assert!(err.contains("`frequency=11`"), "{err}");
        for key in ["pc=", "cycle=", "sub=", "sink=", "cap="] {
            assert!(err.contains(key), "missing {key} in: {err}");
        }
        // A bare word in keyed position names the offending token too.
        let err = TraceFilter::parse("pc=7 loud").unwrap_err();
        assert!(err.contains("`loud`"), "{err}");
        assert!(err.contains("pc=") && err.contains("cap="), "{err}");
    }
}
