//! # cfir-obs — observability layer for the CFIR simulator
//!
//! A self-contained (zero external dependencies) telemetry toolkit used
//! by every other crate in the workspace:
//!
//! | module | contents |
//! |---|---|
//! | [`hist`] | power-of-two-bucket latency histograms |
//! | [`stall`] | per-cycle stall-attribution causes and breakdown |
//! | [`event`] | typed trace events (vectorize/validate/flush/…) |
//! | [`filter`] | `CFIR_TRACE` filter, parsed **once** at startup |
//! | [`lifecycle`] | per-instruction lifecycle records, Konata pipeview, ASCII timeline |
//! | [`critpath`] | causal critical path, hierarchical CPI stack, what-if projections |
//! | [`sink`] | pluggable sinks: human text, JSONL, Chrome `trace_event` |
//! | [`trace`] | the [`Tracer`] tying filter + sinks together |
//! | [`json`] | hand-rolled JSON writer + minimal parser (no serde) |
//! | [`rng`] | splitmix64 / xoshiro256** PRNG (replaces the `rand` crate) |
//!
//! It also holds [`fnv1a64`] (and its streaming form [`Fnv1a64`]), the
//! content-address hash shared by the harness's result cache and the
//! sampler's checkpoints.
//!
//! ## Zero overhead when disabled
//!
//! The simulator holds an `Option<Tracer>`; when `CFIR_TRACE` is unset
//! the option is `None` and every trace site costs exactly one branch —
//! no `format!`, no `env::var`, no allocation. Event payloads are built
//! lazily, only after the parse-once filter has matched.

pub mod critpath;
pub mod event;
pub mod filter;
pub mod hist;
pub mod json;
pub mod lifecycle;
pub mod rng;
pub mod sink;
pub mod stall;
pub mod trace;

pub use critpath::{BottleneckReport, CpiStack, CritPath, EdgeClass, PathSeg, WhatIfRow, ZeroSet};
pub use event::{EventKind, Subsystem, TraceEvent};
pub use filter::TraceFilter;
pub use hist::Hist;
pub use json::{JsonValue, JsonWriter};
pub use lifecycle::{
    parse_konata, render_timeline, Fate, InstLane, InstRecord, LifecycleLog, ParsedTrace,
    PipeviewSpec, TimelineOpts, WaitDetail, WaitEdge, WaitEdgeKind,
};
pub use rng::Rng64;
pub use stall::{StallBreakdown, StallCause};
pub use trace::Tracer;

/// FNV-1a 64-bit hash: the content address of harness job
/// fingerprints and sampling checkpoints, so it must never change.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a64::default();
    h.write(bytes);
    h.finish()
}

/// [`fnv1a64`] of a byte sequence fed in pieces: the digest of the
/// pieces' concatenation, without building it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a64(u64);

impl Default for Fnv1a64 {
    fn default() -> Self {
        Fnv1a64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a64 {
    /// Append `bytes` to the hashed sequence.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }

    /// The digest of everything written so far.
    #[inline]
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable_and_spreads() {
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
        // Regression pin so cache file names never silently change.
        assert_eq!(fnv1a64(b"cfir"), 0xbcdc9d90ec62c887);
    }

    #[test]
    fn streamed_pieces_hash_like_their_concatenation() {
        let mut h = Fnv1a64::default();
        for piece in [&b"cf"[..], b"", b"ir"] {
            h.write(piece);
        }
        assert_eq!(h.finish(), fnv1a64(b"cfir"));
    }
}
