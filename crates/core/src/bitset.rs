//! A fixed-size set of small indices, one bit each. The SRSMT keeps its
//! live ways in one and the pipeline its issuable window slots, so the
//! per-cycle walks over them visit only the members, in ascending
//! order, instead of every way or every window entry; `cfir-analyze`
//! keeps its reaching-definition sets in them. [`BitRows`] is a
//! table of such sets in one allocation: the window's per-register
//! waiting sets and its per-cycle completion buckets.

/// A set of indices below the size it was built with.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// An empty set of indices `0..n`.
    pub fn new(n: usize) -> Self {
        BitSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// Add `i`.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Add every member of `other`, a set of the same size.
    pub fn union_with(&mut self, other: &BitSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Remove `i`.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Whether `i` is a member.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set has no member.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Members in ascending order.
    #[inline]
    pub fn iter(&self) -> Iter<'_> {
        self.iter_in(0, self.words.len() * 64)
    }

    /// Members in `lo..hi`, in ascending order.
    #[inline]
    pub fn iter_in(&self, lo: usize, hi: usize) -> Iter<'_> {
        Iter {
            set: self,
            at: self.cursor(lo, hi),
        }
    }

    /// A walk over the members in `lo..hi`, in ascending order, that
    /// does not borrow the set: [`BitSet::step`] advances it.
    #[inline]
    pub fn cursor(&self, lo: usize, hi: usize) -> Cursor {
        let w = lo / 64;
        let bits = match self.words.get(w) {
            Some(&bits) if lo < hi => bits & (!0u64 << (lo % 64)),
            _ => 0,
        };
        Cursor {
            w,
            bits,
            hi: hi.min(self.words.len() * 64),
        }
    }

    /// The cursor's next member. A word is read when the walk enters
    /// it, so members removed or added in a word the walk has entered
    /// do not change what it yields there; between steps the set may
    /// otherwise change freely.
    #[inline]
    pub fn step(&self, at: &mut Cursor) -> Option<usize> {
        while at.bits == 0 {
            at.w += 1;
            if at.w * 64 >= at.hi {
                return None;
            }
            at.bits = self.words[at.w];
        }
        let i = at.w * 64 + at.bits.trailing_zeros() as usize;
        if i >= at.hi {
            at.bits = 0;
            return None;
        }
        at.bits &= at.bits - 1;
        Some(i)
    }
}

/// A position in an ascending walk over a [`BitSet`]'s members (see
/// [`BitSet::cursor`]).
#[derive(Debug, Clone, Copy)]
pub struct Cursor {
    /// Word holding `bits`.
    w: usize,
    /// Members of word `w` not yet yielded.
    bits: u64,
    hi: usize,
}

/// Equal-width sets of indices `0..width`, one per row, in one flat
/// allocation (`width / 64` words per row, rounded up).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitRows {
    rows: usize,
    row_words: usize,
    words: Vec<u64>,
}

impl BitRows {
    /// `rows` empty rows of indices `0..width`.
    pub fn new(rows: usize, width: usize) -> Self {
        let row_words = width.div_ceil(64);
        BitRows {
            rows,
            row_words,
            words: vec![0; rows * row_words],
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Append empty rows until there are at least `rows`.
    pub fn grow_to(&mut self, rows: usize) {
        if rows > self.rows {
            self.rows = rows;
            self.words.resize(rows * self.row_words, 0);
        }
    }

    /// Add `i` to row `row`.
    #[inline]
    pub fn insert(&mut self, row: usize, i: usize) {
        self.words[row * self.row_words + i / 64] |= 1 << (i % 64);
    }

    /// Whether `i` is a member of row `row`.
    #[inline]
    pub fn contains(&self, row: usize, i: usize) -> bool {
        self.words[row * self.row_words + i / 64] & (1 << (i % 64)) != 0
    }

    /// Empty row `row`, handing each of its members to `f` in ascending
    /// order.
    #[inline]
    pub fn drain_row(&mut self, row: usize, mut f: impl FnMut(usize)) {
        let at = row * self.row_words;
        for w in 0..self.row_words {
            let mut bits = std::mem::take(&mut self.words[at + w]);
            while bits != 0 {
                f(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }
}

/// Iterator over a [`BitSet`]'s members in a range.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    set: &'a BitSet,
    at: Cursor,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        self.set.step(&mut self.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn members_come_back_in_ascending_order() {
        let mut s = BitSet::new(200);
        assert!(s.is_empty());
        for i in [130, 0, 63, 64, 199] {
            s.insert(i);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 130, 199]);
        assert_eq!(s.len(), 5);
        s.remove(64);
        assert!(!s.contains(64) && s.contains(63));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 130, 199]);
    }

    #[test]
    fn iter_in_respects_both_bounds() {
        let mut s = BitSet::new(256);
        s.insert(5);
        s.insert(70);
        s.insert(255);
        assert_eq!(s.iter_in(0, 256).next(), Some(5));
        assert_eq!(s.iter_in(6, 256).next(), Some(70));
        assert_eq!(s.iter_in(6, 70).next(), None, "hi is exclusive");
        assert_eq!(s.iter_in(71, 256).next(), Some(255));
        assert_eq!(s.iter_in(200, 200).next(), None);
        assert_eq!(s.iter_in(5, 255).collect::<Vec<_>>(), vec![5, 70]);
        assert_eq!(s.iter_in(6, 256).collect::<Vec<_>>(), vec![70, 255]);
        assert_eq!(s.iter_in(71, 71).count(), 0);
        assert_eq!(s.iter_in(256, 300).count(), 0, "past the end");
    }

    #[test]
    fn a_cursor_survives_changes_to_the_set() {
        let mut s = BitSet::new(130);
        for i in [1, 2, 70, 129] {
            s.insert(i);
        }
        let mut at = s.cursor(0, 130);
        assert_eq!(s.step(&mut at), Some(1));
        s.remove(1);
        s.remove(70);
        assert_eq!(s.step(&mut at), Some(2));
        assert_eq!(
            s.step(&mut at),
            Some(129),
            "70 left before its word was read"
        );
        assert_eq!(s.step(&mut at), None);
    }

    #[test]
    fn rows_are_independent_and_drain_in_ascending_order() {
        let mut r = BitRows::new(3, 130);
        assert_eq!(r.rows(), 3);
        for i in [129, 0, 64] {
            r.insert(1, i);
        }
        r.insert(2, 5);
        assert!(r.contains(1, 64) && !r.contains(0, 64) && !r.contains(2, 64));
        let mut got = Vec::new();
        r.drain_row(1, |i| got.push(i));
        assert_eq!(got, vec![0, 64, 129]);
        r.drain_row(1, |_| panic!("a drained row is empty"));
        assert!(r.contains(2, 5), "other rows untouched");
        r.grow_to(5);
        assert_eq!(r.rows(), 5);
        r.insert(4, 129);
        assert!(r.contains(4, 129) && r.contains(2, 5));
        r.grow_to(2);
        assert_eq!(r.rows(), 5, "never shrinks");
    }
}
