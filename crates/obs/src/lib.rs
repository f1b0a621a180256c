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

/// The FNV-1a 64-bit prime.
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// `PRIME^n` for every `n < 64`.
const PRIME_POWERS: [u64; 64] = {
    let mut t = [1u64; 64];
    let mut n = 1;
    while n < 64 {
        t[n] = t[n - 1].wrapping_mul(PRIME);
        n += 1;
    }
    t
};

/// `PRIME^n` modulo 2^64: a table load for short runs, square and
/// multiply for long ones.
#[inline]
fn prime_pow(n: u64) -> u64 {
    if n < 64 {
        return PRIME_POWERS[n as usize];
    }
    let (mut pow, mut base, mut n) = (1u64, PRIME, n);
    while n != 0 {
        if n & 1 == 1 {
            pow = pow.wrapping_mul(base);
        }
        base = base.wrapping_mul(base);
        n >>= 1;
    }
    pow
}

/// [`fnv1a64`] of a byte sequence fed in pieces: the digest of the
/// pieces' concatenation, without building it.
///
/// FNV-1a's step on a zero byte only multiplies the state by the prime
/// (the xor is a no-op), so a run of `n` zero bytes is one multiply by
/// `PRIME^n`. The hasher counts the zero bytes it has been fed since
/// the last non-zero one and folds the run in when the next non-zero
/// byte arrives (or at [`Fnv1a64::finish`]). The digest is bit for bit
/// the byte-serial one; mostly-zero inputs such as checkpoints hash
/// several times faster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a64 {
    /// The state after the last non-zero byte.
    h: u64,
    /// Zero bytes fed since then, not yet folded into `h`.
    zeros: u64,
}

impl Default for Fnv1a64 {
    fn default() -> Self {
        Fnv1a64 {
            h: 0xcbf2_9ce4_8422_2325,
            zeros: 0,
        }
    }
}

impl Fnv1a64 {
    /// Append `bytes` to the hashed sequence.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.write_u64(u64::from_le_bytes(w.try_into().unwrap()));
        }
        for &b in words.remainder() {
            if b == 0 {
                self.zeros += 1;
            } else {
                self.h =
                    (self.h.wrapping_mul(prime_pow(self.zeros)) ^ u64::from(b)).wrapping_mul(PRIME);
                self.zeros = 0;
            }
        }
    }

    /// Append the 8 little-endian bytes of `v`.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        if v == 0 {
            self.zeros += 8;
            return;
        }
        // The zero bytes `v` opens with join the pending run; those it
        // ends with start the next one; the bytes between take the
        // plain step (a zero among them is one multiply either way).
        let lead = v.trailing_zeros() / 8;
        let tail = v.leading_zeros() / 8;
        let mut h = self.h.wrapping_mul(prime_pow(self.zeros + u64::from(lead)));
        for &b in &v.to_le_bytes()[lead as usize..(8 - tail) as usize] {
            h = (h ^ u64::from(b)).wrapping_mul(PRIME);
        }
        self.h = h;
        self.zeros = u64::from(tail);
    }

    /// The digest of everything written so far.
    #[inline]
    pub fn finish(self) -> u64 {
        self.h.wrapping_mul(prime_pow(self.zeros))
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

    /// The byte-serial definition the zero-run folding must match.
    fn reference(bytes: &[u8]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
        h
    }

    #[test]
    fn prime_powers_are_repeated_multiplies() {
        let mut pow = 1u64;
        for n in 0..300 {
            assert_eq!(prime_pow(n), pow, "PRIME^{n}");
            pow = pow.wrapping_mul(PRIME);
        }
    }

    /// Zero runs of every length 0..=130 at every alignment mod 8,
    /// between random bytes, fed in random pieces (split inside runs
    /// too) through both `write` and `write_u64`: every prefix digest
    /// equals the byte-serial one.
    #[test]
    fn zero_runs_fold_to_the_byte_serial_digest() {
        let mut rng = Rng64::seed_from_u64(0xF0F1);
        for align in 0..8usize {
            for run in 0..=130usize {
                for _ in 0..3 {
                    let mut input: Vec<u8> = (0..align + 8 * rng.gen_range(0, 3) as usize)
                        .map(|_| rng.next_u64() as u8)
                        .collect();
                    input.resize(input.len() + run, 0);
                    let suffix = rng.gen_range(0, 20) as usize;
                    input.extend((0..suffix).map(|i| {
                        let b = rng.next_u64() as u8;
                        if i == 0 {
                            b | 1
                        } else {
                            b
                        }
                    }));
                    assert_eq!(fnv1a64(&input), reference(&input));

                    let mut h = Fnv1a64::default();
                    let mut at = 0;
                    while at < input.len() {
                        let left = input.len() - at;
                        if left >= 8 && rng.gen_range(0, 2) == 0 {
                            let w = u64::from_le_bytes(input[at..at + 8].try_into().unwrap());
                            h.write_u64(w);
                            at += 8;
                        } else {
                            let n = rng.gen_range_incl(0, left.min(20) as u64) as usize;
                            h.write(&input[at..at + n]);
                            at += n;
                        }
                        assert_eq!(
                            h.finish(),
                            reference(&input[..at]),
                            "align {align}, run {run}, {at} of {} bytes",
                            input.len()
                        );
                    }
                }
            }
        }
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
