//! Packed row-selection bitmasks produced by predicate evaluation.

/// A fixed-length bitmask over the rows of one partition, packed 64 rows per
/// word. Predicate evaluation produces one of these; aggregation then
/// iterates only the selected rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmask {
    words: Vec<u64>,
    len: usize,
}

impl Bitmask {
    /// All-zero mask over `len` rows.
    pub fn zeros(len: usize) -> Self {
        Bitmask { words: vec![0; len.div_ceil(64)], len }
    }

    /// All-one mask over `len` rows.
    pub fn ones(len: usize) -> Self {
        let mut m = Bitmask { words: vec![u64::MAX; len.div_ceil(64)], len };
        m.clear_tail();
        m
    }

    /// Number of rows covered by the mask.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the mask covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Set row `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Test row `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of selected rows.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if at least one row is selected. Unlike `count_ones() != 0`
    /// this exits on the first non-zero word, so it is the cheap emptiness
    /// test for AND short-circuiting.
    pub fn any_set(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// Mutable packed words for the crate's kernel writers (64 rows each,
    /// low bit = lowest row index). Callers must keep the bits at or
    /// beyond `len` in the last word zero.
    #[inline]
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Reshape this mask to `len` all-zero rows, reusing the existing word
    /// allocation. This is the reuse hook behind `MaskScratch`.
    pub fn reset_zeros(&mut self, len: usize) {
        self.words.clear();
        self.words.resize(len.div_ceil(64), 0);
        self.len = len;
    }

    /// Reshape to `len` rows *without* clearing reused words — for the
    /// crate's kernels, which overwrite every word anyway (a full-buffer
    /// memset on the hot path would be pure waste). The words are garbage
    /// (tail invariant included) until written, which is why this and
    /// [`Bitmask::words_mut`] stay crate-private.
    pub(crate) fn reset_for_overwrite(&mut self, len: usize) {
        self.words.resize(len.div_ceil(64), 0);
        self.len = len;
    }

    /// Clear every row.
    pub fn fill_zeros(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }

    /// Set every row, keeping the tail invariant.
    pub fn fill_ones(&mut self) {
        for w in &mut self.words {
            *w = u64::MAX;
        }
        self.clear_tail();
    }

    /// In-place intersection. Panics if lengths differ.
    pub fn and_inplace(&mut self, other: &Bitmask) {
        assert_eq!(self.len, other.len, "bitmask length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place union. Panics if lengths differ.
    pub fn or_inplace(&mut self, other: &Bitmask) {
        assert_eq!(self.len, other.len, "bitmask length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place complement.
    pub fn not_inplace(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.clear_tail();
    }

    /// Build a mask by evaluating `pred` on each row index.
    pub fn from_fn(len: usize, mut pred: impl FnMut(usize) -> bool) -> Self {
        let mut m = Bitmask::zeros(len);
        for i in 0..len {
            if pred(i) {
                m.set(i);
            }
        }
        m
    }

    /// Visit each selected row index in ascending order, word-at-a-time:
    /// all-zero words cost one compare, all-one words take a straight
    /// 64-index run (in bounds because tail bits beyond `len` are kept
    /// zero, so the last word is never all-ones unless complete), and
    /// mixed words gather set bits via `trailing_zeros`. This is the one
    /// shared walk behind masked aggregation and sample estimation.
    #[inline]
    pub fn for_each_one(&self, mut f: impl FnMut(usize)) {
        for (wi, &word) in self.words.iter().enumerate() {
            if word == 0 {
                continue;
            }
            let base = wi * 64;
            if word == u64::MAX {
                for i in base..base + 64 {
                    f(i);
                }
            } else {
                let mut w = word;
                while w != 0 {
                    f(base + w.trailing_zeros() as usize);
                    w &= w - 1;
                }
            }
        }
    }

    /// Iterate indices of selected rows in ascending order.
    pub fn iter_ones(&self) -> OnesIter<'_> {
        OnesIter {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
            len: self.len,
        }
    }

    /// Zero any bits beyond `len` in the last word (they must stay zero for
    /// `count_ones` and `not` to be correct).
    fn clear_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

/// Iterator over set-bit indices of a [`Bitmask`].
pub struct OnesIter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
    len: usize,
}

impl Iterator for OnesIter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1; // clear lowest set bit
                let idx = self.word_idx * 64 + bit;
                debug_assert!(idx < self.len);
                return Some(idx);
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ones_and_zeros() {
        assert_eq!(Bitmask::ones(130).count_ones(), 130);
        assert_eq!(Bitmask::zeros(130).count_ones(), 0);
        assert_eq!(Bitmask::ones(0).count_ones(), 0);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut m = Bitmask::zeros(100);
        m.set(0);
        m.set(63);
        m.set(64);
        m.set(99);
        assert!(m.get(0) && m.get(63) && m.get(64) && m.get(99));
        assert!(!m.get(1) && !m.get(65));
        assert_eq!(m.count_ones(), 4);
        assert_eq!(m.iter_ones().collect::<Vec<_>>(), vec![0, 63, 64, 99]);
    }

    #[test]
    fn any_set_and_reuse() {
        let mut m = Bitmask::zeros(130);
        assert!(!m.any_set());
        m.set(129);
        assert!(m.any_set());
        m.reset_zeros(70);
        assert_eq!(m.len(), 70);
        assert!(!m.any_set());
        m.fill_ones();
        assert_eq!(m.count_ones(), 70);
        m.fill_zeros();
        assert!(!m.any_set());
        // Dirty reuse: fill_ones/fill_zeros must leave no stale bits even
        // after reshaping without a clear.
        m.fill_ones();
        m.reset_for_overwrite(100);
        m.fill_ones();
        assert_eq!(m.count_ones(), 100);
    }

    #[test]
    fn for_each_one_matches_iter_ones() {
        let m = Bitmask::from_fn(200, |i| i % 3 == 0 || (64..128).contains(&i));
        let mut visited = Vec::new();
        m.for_each_one(|i| visited.push(i));
        assert_eq!(visited, m.iter_ones().collect::<Vec<_>>());
    }

    #[test]
    fn not_respects_tail() {
        let mut m = Bitmask::zeros(70);
        m.not_inplace();
        assert_eq!(m.count_ones(), 70);
        m.not_inplace();
        assert_eq!(m.count_ones(), 0);
    }

    #[test]
    fn and_or() {
        let mut a = Bitmask::from_fn(10, |i| i % 2 == 0);
        let b = Bitmask::from_fn(10, |i| i % 3 == 0);
        let mut o = a.clone();
        o.or_inplace(&b);
        a.and_inplace(&b);
        assert_eq!(a.iter_ones().collect::<Vec<_>>(), vec![0, 6]);
        assert_eq!(o.iter_ones().collect::<Vec<_>>(), vec![0, 2, 3, 4, 6, 8, 9]);
    }

    proptest! {
        #[test]
        fn iter_matches_get(bits in proptest::collection::vec(any::<bool>(), 0..300)) {
            let m = Bitmask::from_fn(bits.len(), |i| bits[i]);
            let from_iter: Vec<usize> = m.iter_ones().collect();
            let expected: Vec<usize> =
                bits.iter().enumerate().filter(|(_, b)| **b).map(|(i, _)| i).collect();
            prop_assert_eq!(from_iter, expected);
            prop_assert_eq!(m.count_ones(), bits.iter().filter(|b| **b).count());
        }

        #[test]
        fn demorgan(bits_a in proptest::collection::vec(any::<bool>(), 0..200),
                    seed in any::<u64>()) {
            let n = bits_a.len();
            let bits_b: Vec<bool> =
                (0..n).map(|i| (seed.wrapping_mul(i as u64 + 1) >> 7) & 1 == 1).collect();
            let a = Bitmask::from_fn(n, |i| bits_a[i]);
            let b = Bitmask::from_fn(n, |i| bits_b[i]);
            // !(a & b) == !a | !b
            let mut lhs = a.clone();
            lhs.and_inplace(&b);
            lhs.not_inplace();
            let mut na = a.clone();
            na.not_inplace();
            let mut nb = b.clone();
            nb.not_inplace();
            na.or_inplace(&nb);
            prop_assert_eq!(lhs, na);
        }
    }
}
