//! Load/store queue with store→load forwarding.
//!
//! Table 1: 64 entries, store-load forwarding, and loads may execute
//! only when all prior store addresses are known (conservative
//! disambiguation, as in SimpleScalar's default).

use std::collections::VecDeque;

/// One LSQ entry (loads and stores share the queue, in program order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LsqEntry {
    /// Dynamic sequence number of the owning instruction.
    pub seq: u64,
    /// Lifecycle id of the owning instruction (0 when recording is off).
    pub lid: u64,
    /// `true` for stores.
    pub store: bool,
    /// Effective address once computed.
    pub addr: Option<u64>,
    /// Store data once available.
    pub data: Option<u64>,
}

/// What a load should do this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadSearch {
    /// No older conflicting store: access the data cache.
    CacheAccess,
    /// An older store to the same word supplies the value.
    Forwarded(u64),
    /// Cannot execute yet, blocked by the older store of this lifecycle
    /// id: the youngest with an unknown address, or the matching one
    /// whose data is not ready.
    Stall(u64),
}

/// The bounded load/store queue.
#[derive(Debug, Clone)]
pub struct Lsq {
    q: VecDeque<LsqEntry>,
    cap: usize,
}

impl Lsq {
    /// Create a queue with `cap` entries.
    pub fn new(cap: usize) -> Self {
        Lsq {
            q: VecDeque::with_capacity(cap),
            cap,
        }
    }

    /// Whether a new memory instruction can be accepted.
    #[inline]
    pub fn has_room(&self) -> bool {
        self.q.len() < self.cap
    }

    /// Occupancy.
    #[inline]
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// Append a memory instruction at dispatch (program order), with
    /// its lifecycle id `lid`.
    ///
    /// # Panics
    /// Panics when full — callers must check [`Lsq::has_room`].
    pub fn push(&mut self, seq: u64, lid: u64, store: bool) {
        assert!(self.has_room(), "LSQ overflow");
        debug_assert!(self.q.back().map(|e| e.seq < seq).unwrap_or(true));
        self.q.push_back(LsqEntry {
            seq,
            lid,
            store,
            addr: None,
            data: None,
        });
    }

    /// The entry of instruction `seq` (the queue is in ascending `seq`
    /// order).
    fn find_mut(&mut self, seq: u64) -> Option<&mut LsqEntry> {
        let i = self.q.binary_search_by_key(&seq, |e| e.seq).ok()?;
        Some(&mut self.q[i])
    }

    /// The stores older than instruction `seq`, youngest first.
    fn older_stores(&self, seq: u64) -> impl Iterator<Item = &LsqEntry> {
        let n = self.q.partition_point(|e| e.seq < seq);
        self.q.range(..n).rev().filter(|e| e.store)
    }

    /// Record the computed effective address (word-aligned).
    pub fn set_addr(&mut self, seq: u64, addr: u64) {
        if let Some(e) = self.find_mut(seq) {
            e.addr = Some(addr);
        }
    }

    /// Record a store's data value.
    pub fn set_data(&mut self, seq: u64, data: u64) {
        if let Some(e) = self.find_mut(seq) {
            e.data = Some(data);
        }
    }

    /// Decide what the load `seq` at `addr` should do, scanning older
    /// stores youngest-first. The first store with an unknown address
    /// stalls the load: a match beyond it would be older than a store
    /// that may yet write `addr`.
    pub fn search_for_load(&self, seq: u64, addr: u64) -> LoadSearch {
        for e in self.older_stores(seq) {
            match e.addr {
                None => return LoadSearch::Stall(e.lid),
                Some(a) if a == addr => {
                    return match e.data {
                        Some(d) => LoadSearch::Forwarded(d),
                        None => LoadSearch::Stall(e.lid),
                    };
                }
                _ => {}
            }
        }
        LoadSearch::CacheAccess
    }

    /// Remove the head entry when its instruction commits.
    pub fn pop_committed(&mut self, seq: u64) {
        if let Some(head) = self.q.front() {
            if head.seq == seq {
                self.q.pop_front();
                return;
            }
        }
        debug_assert!(
            self.q.front().map(|e| e.seq > seq).unwrap_or(true),
            "LSQ head older than committing instruction"
        );
    }

    /// Drop entries of squashed instructions (younger than `seq`).
    pub fn squash_younger(&mut self, seq: u64) {
        while let Some(tail) = self.q.back() {
            if tail.seq > seq {
                self.q.pop_back();
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The lifecycle id the tests give instruction `seq`: distinct from
    /// every `seq`, so a `Stall` naming the sequence number fails.
    fn lid(seq: u64) -> u64 {
        seq + 1000
    }

    #[test]
    fn forwarding_from_matching_store() {
        let mut l = Lsq::new(8);
        l.push(1, lid(1), true);
        l.set_addr(1, 1000);
        l.set_data(1, 77);
        l.push(2, lid(2), false);
        assert_eq!(l.search_for_load(2, 1000), LoadSearch::Forwarded(77));
        assert_eq!(l.search_for_load(2, 1008), LoadSearch::CacheAccess);
    }

    #[test]
    fn youngest_matching_store_wins() {
        let mut l = Lsq::new(8);
        l.push(1, lid(1), true);
        l.set_addr(1, 1000);
        l.set_data(1, 1);
        l.push(2, lid(2), true);
        l.set_addr(2, 1000);
        l.set_data(2, 2);
        l.push(3, lid(3), false);
        assert_eq!(l.search_for_load(3, 1000), LoadSearch::Forwarded(2));
    }

    #[test]
    fn unknown_older_store_address_stalls() {
        let mut l = Lsq::new(8);
        l.push(1, lid(1), true); // no address yet
        l.push(2, lid(2), false);
        assert_eq!(l.search_for_load(2, 1000), LoadSearch::Stall(lid(1)));
        l.set_addr(1, 2000);
        l.set_data(1, 9);
        assert_eq!(l.search_for_load(2, 1000), LoadSearch::CacheAccess);
    }

    #[test]
    fn matching_store_without_data_stalls() {
        let mut l = Lsq::new(8);
        l.push(1, lid(1), true);
        l.set_addr(1, 1000);
        l.push(2, lid(2), false);
        assert_eq!(l.search_for_load(2, 1000), LoadSearch::Stall(lid(1)));
    }

    #[test]
    fn younger_stores_are_ignored() {
        let mut l = Lsq::new(8);
        l.push(1, lid(1), false);
        l.push(2, lid(2), true);
        l.set_addr(2, 1000);
        l.set_data(2, 5);
        assert_eq!(l.search_for_load(1, 1000), LoadSearch::CacheAccess);
    }

    #[test]
    fn intervening_unknown_store_blocks_older_match() {
        let mut l = Lsq::new(8);
        l.push(1, lid(1), true);
        l.set_addr(1, 1000);
        l.set_data(1, 5);
        l.push(2, lid(2), true); // unknown address between the match and the load
        l.push(3, lid(3), false);
        assert_eq!(l.search_for_load(3, 1000), LoadSearch::Stall(lid(2)));
    }

    #[test]
    fn blocking_store_mirrors_the_stall_verdict() {
        let mut l = Lsq::new(8);
        l.push(1, lid(1), true); // unknown address
        l.push(2, lid(2), true);
        l.set_addr(2, 1000); // matching, data missing
        l.push(3, lid(3), false);
        // Youngest blocker first: store 2 matches but has no data.
        assert_eq!(l.search_for_load(3, 1000), LoadSearch::Stall(lid(2)));
        l.set_data(2, 7);
        // Now the match forwards; nothing blocks.
        assert_eq!(l.search_for_load(3, 1000), LoadSearch::Forwarded(7));
        // A different address is still behind store 1's unknown addr.
        assert_eq!(l.search_for_load(3, 2000), LoadSearch::Stall(lid(1)));
        l.set_addr(1, 3000);
        l.set_data(1, 0);
        assert_eq!(l.search_for_load(3, 2000), LoadSearch::CacheAccess);
    }

    #[test]
    fn commit_pops_head_and_squash_pops_tail() {
        let mut l = Lsq::new(8);
        l.push(1, lid(1), true);
        l.push(2, lid(2), false);
        l.push(3, lid(3), false);
        l.squash_younger(2);
        assert_eq!(l.len(), 2);
        l.pop_committed(1);
        assert_eq!(l.len(), 1);
        l.pop_committed(2);
        assert_eq!(l.len(), 0);
    }

    #[test]
    fn capacity_respected() {
        let mut l = Lsq::new(2);
        l.push(1, lid(1), false);
        l.push(2, lid(2), false);
        assert!(!l.has_room());
    }

    #[test]
    #[should_panic(expected = "LSQ overflow")]
    fn overflow_panics() {
        let mut l = Lsq::new(1);
        l.push(1, lid(1), false);
        l.push(2, lid(2), false);
    }

    /// The linear scans the binary searches replaced, kept as the
    /// reference they are checked against.
    mod reference {
        use super::*;

        pub fn find_mut(l: &mut Lsq, seq: u64) -> Option<&mut LsqEntry> {
            l.q.iter_mut().find(|e| e.seq == seq)
        }

        pub fn search_for_load(l: &Lsq, seq: u64, addr: u64) -> LoadSearch {
            for e in l.q.iter().rev() {
                if e.seq >= seq || !e.store {
                    continue;
                }
                match e.addr {
                    None => return LoadSearch::Stall(e.lid),
                    Some(a) if a == addr => {
                        return match e.data {
                            Some(d) => LoadSearch::Forwarded(d),
                            None => LoadSearch::Stall(e.lid),
                        };
                    }
                    _ => {}
                }
            }
            LoadSearch::CacheAccess
        }
    }

    fn contents(l: &Lsq) -> Vec<LsqEntry> {
        l.q.iter().copied().collect()
    }

    #[test]
    fn indexed_lookups_match_the_linear_scans() {
        for seed in 0..40 {
            let mut rng = cfir_obs::Rng64::seed_from_u64(seed);
            // `fast` is driven through the indexed lookups, `slow`
            // through the reference scans.
            let (mut fast, mut slow) = (Lsq::new(16), Lsq::new(16));
            let mut next_seq = 1u64;
            for step in 0..400 {
                let hi = next_seq + 2;
                match rng.gen_range(0, 10) {
                    0..=2 if fast.has_room() => {
                        // Gaps in `seq`, as in the window: non-memory
                        // instructions sit between LSQ entries.
                        next_seq += rng.gen_range(1, 4);
                        let store = rng.gen_bool(0.5);
                        fast.push(next_seq, lid(next_seq), store);
                        slow.push(next_seq, lid(next_seq), store);
                    }
                    3..=4 => {
                        let (seq, addr) = (rng.gen_range(0, hi), 8 * rng.gen_range(0, 4));
                        fast.set_addr(seq, addr);
                        if let Some(e) = reference::find_mut(&mut slow, seq) {
                            e.addr = Some(addr);
                        }
                    }
                    5..=6 => {
                        let (seq, data) = (rng.gen_range(0, hi), rng.next_u64());
                        fast.set_data(seq, data);
                        if let Some(e) = reference::find_mut(&mut slow, seq) {
                            e.data = Some(data);
                        }
                    }
                    7 => {
                        let seq = rng.gen_range(0, hi);
                        fast.squash_younger(seq);
                        slow.squash_younger(seq);
                    }
                    _ => {
                        if let Some(seq) = fast.q.front().map(|e| e.seq) {
                            fast.pop_committed(seq);
                            slow.pop_committed(seq);
                        }
                    }
                }
                assert_eq!(contents(&fast), contents(&slow), "seed {seed} step {step}");
                for seq in 0..hi {
                    for addr in [0, 8, 16, 24] {
                        assert_eq!(
                            fast.search_for_load(seq, addr),
                            reference::search_for_load(&fast, seq, addr),
                            "seed {seed} step {step}: load {seq} at {addr}"
                        );
                    }
                }
            }
        }
    }
}
