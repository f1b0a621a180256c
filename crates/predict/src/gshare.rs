//! Gshare conditional-branch predictor with speculative history.

/// Gshare entries of Table 1 (64K): the simulator's predictor and the
/// sampled runs' warming predictor are both [`Gshare::paper`].
pub const GSHARE_ENTRIES: usize = 64 * 1024;

/// Gshare predictor: `entries` 2-bit counters indexed by
/// `(pc >> 2) ^ history`. Table 1 uses 64K entries.
#[derive(Debug, Clone)]
pub struct Gshare {
    table: Vec<u8>,
    mask: u64,
    history_bits: u32,
    history: u64,
    /// Predictions made.
    pub lookups: u64,
    /// Training updates that disagreed with the prediction made with
    /// the same history (diagnostic; the core keeps the real
    /// misprediction count).
    pub mispredicts: u64,
}

impl Gshare {
    /// Create a predictor with `entries` counters (power of two).
    /// History length is `log2(entries)` bits.
    pub fn new(entries: usize) -> Self {
        assert!(entries.is_power_of_two() && entries >= 2);
        Gshare {
            table: vec![2; entries], // weakly taken
            mask: entries as u64 - 1,
            history_bits: entries.trailing_zeros(),
            history: 0,
            lookups: 0,
            mispredicts: 0,
        }
    }

    /// The paper's [`GSHARE_ENTRIES`]-entry configuration.
    pub fn paper() -> Self {
        Self::new(GSHARE_ENTRIES)
    }

    #[inline]
    fn index(&self, pc: u64, history: u64) -> usize {
        (((pc >> 2) ^ history) & self.mask) as usize
    }

    /// Current speculative global history (checkpoint this at fetch).
    #[inline]
    pub fn history(&self) -> u64 {
        self.history
    }

    /// Restore history after squashing wrong-path branches.
    #[inline]
    pub fn restore_history(&mut self, h: u64) {
        self.history = h;
    }

    /// Predict the direction of the branch at `pc` using the current
    /// speculative history, and push the prediction into the history.
    /// Returns the predicted direction.
    pub fn predict_and_update(&mut self, pc: u64) -> bool {
        self.lookups += 1;
        let taken = self.table[self.index(pc, self.history)] >= 2;
        self.push(taken);
        taken
    }

    /// Peek at the prediction without touching history (diagnostics).
    pub fn peek(&self, pc: u64) -> bool {
        self.table[self.index(pc, self.history)] >= 2
    }

    /// Shift an outcome into the speculative history.
    #[inline]
    pub fn push(&mut self, taken: bool) {
        let mask = (1u64 << self.history_bits) - 1;
        self.history = ((self.history << 1) | taken as u64) & mask;
    }

    /// Number of 2-bit counters in the table.
    pub fn entries(&self) -> usize {
        self.table.len()
    }

    /// Export the warm state (counter table + global history) for a
    /// checkpoint. Statistics counters are deliberately excluded: warm
    /// state describes *what the predictor has learned*, not how it was
    /// exercised.
    pub fn export_warm(&self) -> (Vec<u8>, u64) {
        (self.table.clone(), self.history)
    }

    /// Import warm state previously produced by [`export_warm`].
    /// Panics if the table length does not match this predictor's
    /// configured entry count (a checkpoint/config mismatch).
    ///
    /// [`export_warm`]: Gshare::export_warm
    pub fn import_warm(&mut self, table: &[u8], history: u64) {
        assert_eq!(
            table.len(),
            self.table.len(),
            "gshare warm-state table length mismatch"
        );
        self.table.copy_from_slice(table);
        self.history = history & self.mask;
    }

    /// Train the counter for the branch at `pc` that was predicted with
    /// `history_at_predict`, given its actual direction.
    pub fn train(&mut self, pc: u64, history_at_predict: u64, taken: bool) {
        let i = self.index(pc, history_at_predict);
        let c = &mut self.table[i];
        let predicted = *c >= 2;
        if predicted != taken {
            self.mispredicts += 1;
        }
        if taken {
            if *c < 3 {
                *c += 1;
            }
        } else if *c > 0 {
            *c -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_always_taken() {
        let mut g = Gshare::new(1024);
        let pc = 0x40;
        for _ in 0..4 {
            let h = g.history();
            let _ = g.predict_and_update(pc);
            g.train(pc, h, true);
        }
        // With a stable history pattern the counter saturates taken.
        let h = g.history();
        assert!(g.predict_and_update(pc));
        g.train(pc, h, true);
    }

    #[test]
    fn learns_never_taken() {
        let mut g = Gshare::new(1024);
        let pc = 0x80;
        for _ in 0..8 {
            let h = g.history();
            let p = g.predict_and_update(pc);
            if p {
                // front end repairs the speculative history on a mispredict
                g.restore_history(h);
                g.push(false);
            }
            g.train(pc, h, false);
        }
        assert!(!g.peek(pc));
    }

    #[test]
    fn history_checkpoint_restore() {
        let mut g = Gshare::new(1024);
        let h0 = g.history();
        g.predict_and_update(0x10);
        g.predict_and_update(0x20);
        assert_ne!(g.history(), h0);
        g.restore_history(h0);
        assert_eq!(g.history(), h0);
    }

    #[test]
    fn history_is_masked_to_log2_entries() {
        let mut g = Gshare::new(16); // 4 history bits
        for _ in 0..100 {
            g.push(true);
        }
        assert_eq!(g.history(), 0xF);
    }

    #[test]
    fn alternating_pattern_learned_via_history() {
        // A strict T/N/T/N pattern is perfectly predictable with gshare
        // once the history disambiguates the two states.
        let mut g = Gshare::new(4096);
        let pc = 0x100;
        let mut correct = 0;
        let mut total = 0;
        let mut outcome = false;
        for i in 0..400 {
            outcome = !outcome;
            let h = g.history();
            let p = g.predict_and_update(pc);
            // history now contains the *prediction*; on a mispredict the
            // front end would repair it — emulate that:
            if p != outcome {
                g.restore_history(h);
                g.push(outcome);
            }
            g.train(pc, h, outcome);
            if i >= 200 {
                total += 1;
                if p == outcome {
                    correct += 1;
                }
            }
        }
        assert!(correct as f64 / total as f64 > 0.95, "{correct}/{total}");
    }

    #[test]
    fn counters_saturate() {
        let mut g = Gshare::new(8);
        for _ in 0..10 {
            g.train(0, 0, true);
        }
        for _ in 0..10 {
            g.train(0, 0, false);
        }
        // After saturating down, prediction with history 0 must be NT.
        g.restore_history(0);
        assert!(!g.peek(0));
    }

    #[test]
    fn warm_state_round_trip() {
        let mut g = Gshare::new(1024);
        for i in 0..200u64 {
            let pc = 0x40 + (i % 7) * 4;
            let h = g.history();
            let p = g.predict_and_update(pc);
            let taken = i % 3 == 0;
            if p != taken {
                g.restore_history(h);
                g.push(taken);
            }
            g.train(pc, h, taken);
        }
        let (table, history) = g.export_warm();
        let mut fresh = Gshare::new(1024);
        fresh.import_warm(&table, history);
        assert_eq!(fresh.history(), g.history());
        for pc in (0..64u64).map(|i| i * 4) {
            assert_eq!(fresh.peek(pc), g.peek(pc));
        }
    }

    #[test]
    #[should_panic(expected = "table length mismatch")]
    fn warm_state_rejects_wrong_size() {
        let mut g = Gshare::new(16);
        g.import_warm(&[2; 8], 0);
    }

    #[test]
    fn lookup_counter() {
        let mut g = Gshare::new(8);
        g.predict_and_update(0);
        g.predict_and_update(4);
        assert_eq!(g.lookups, 2);
    }
}
