//! Fixed-capacity index sets for the active-set kernel.
//!
//! The kernel keeps one [`ActiveSet`] per schedulable resource class
//! (routers with latched flits, routers with buffered flits, NICs with
//! backlog). Producers *mark* an index
//! whenever they hand that resource work; the consuming phase iterates the
//! marked indices in ascending order — the same relative order as the full
//! scan it replaces, which is what keeps the two kernels bit-identical —
//! and *lazily unmarks* entries it finds idle.
//!
//! Membership is a plain bitset, so marking an already-marked index is a
//! cheap idempotent OR: producers never need to know whether the consumer
//! has already seen the index.

/// A set of indices in `0..capacity`, iterated in ascending order.
#[derive(Clone, Debug)]
pub struct ActiveSet {
    words: Vec<u64>,
    capacity: usize,
}

impl ActiveSet {
    /// An empty set over `0..capacity`.
    pub fn new(capacity: usize) -> ActiveSet {
        ActiveSet { words: vec![0; capacity.div_ceil(64)], capacity }
    }

    /// Number of indices the set can hold.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Mark `i` as active (idempotent).
    #[inline]
    pub fn insert(&mut self, i: usize) {
        debug_assert!(i < self.capacity);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Unmark `i` (idempotent).
    #[inline]
    pub fn remove(&mut self, i: usize) {
        debug_assert!(i < self.capacity);
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// True if `i` is marked.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.capacity);
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Number of marked indices.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if nothing is marked.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Replace `out` with the marked indices in ascending order. The caller
    /// iterates the snapshot while mutating the set (lazy removal) and the
    /// structures it guards; indices marked mid-iteration are picked up on
    /// the next collection, which is correct for the kernel because every
    /// in-phase send targets a strictly later cycle.
    pub fn collect_into(&self, out: &mut Vec<u32>) {
        out.clear();
        for (wi, &word) in self.words.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let bit = w.trailing_zeros() as usize;
                out.push((wi * 64 + bit) as u32);
                w &= w - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = ActiveSet::new(200);
        assert!(s.is_empty());
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(199);
        s.insert(64); // idempotent
        assert!(s.contains(0) && s.contains(63) && s.contains(64) && s.contains(199));
        assert!(!s.contains(1) && !s.contains(198));
        assert_eq!(s.len(), 4);
        s.remove(63);
        s.remove(63); // idempotent
        assert!(!s.contains(63));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn collect_is_ascending_and_complete() {
        let mut s = ActiveSet::new(300);
        for i in [257, 3, 128, 64, 63, 0, 299] {
            s.insert(i);
        }
        let mut out = vec![999]; // collect_into must clear stale contents
        s.collect_into(&mut out);
        assert_eq!(out, vec![0, 3, 63, 64, 128, 257, 299]);
    }

    #[test]
    fn empty_and_full_words() {
        let mut s = ActiveSet::new(128);
        for i in 0..128 {
            s.insert(i);
        }
        assert_eq!(s.len(), 128);
        let mut out = Vec::new();
        s.collect_into(&mut out);
        assert_eq!(out.len(), 128);
        assert!(out.windows(2).all(|w| w[0] < w[1]));
        for i in 0..128 {
            s.remove(i);
        }
        assert!(s.is_empty());
    }
}
