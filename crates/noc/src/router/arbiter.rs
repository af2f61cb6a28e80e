//! Round-robin arbitration for the separable switch allocator.

/// A rotating-priority (round-robin) arbiter over `n ≤ 64` requesters.
///
/// Grants the first requester after the last winner, wrapping, which is
/// the standard matrix-free round-robin used in NoC switch allocators:
/// starvation free, and one mask-and-`trailing_zeros` per arbitration
/// over a request bit vector.
#[derive(Clone, Debug)]
pub struct RoundRobin {
    n: usize,
    last: usize,
}

impl RoundRobin {
    pub fn new(n: usize) -> RoundRobin {
        assert!(n > 0 && n <= 64, "a request mask holds 1 to 64 requesters");
        RoundRobin { n, last: n - 1 }
    }

    /// Grant among the requesters whose bits are set in `mask` (bit `i`
    /// is requester `i`; no bit at or above `n`): the first set bit after
    /// the last winner, or else the lowest set bit. Updates priority.
    #[inline]
    pub fn grant_mask(&mut self, mask: u64) -> Option<usize> {
        debug_assert!(self.n == 64 || mask >> self.n == 0, "request outside the arbiter");
        if mask == 0 {
            return None;
        }
        let after = mask & ((u64::MAX << self.last) << 1);
        let i = if after != 0 { after } else { mask }.trailing_zeros() as usize;
        self.last = i;
        Some(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn grants_rotate_fairly() {
        let mut rr = RoundRobin::new(4);
        // All requesting: must cycle 0,1,2,3,0,...
        let seq: Vec<usize> = (0..8).map(|_| rr.grant_mask(0b1111).unwrap()).collect();
        assert_eq!(seq, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn skips_non_requesters() {
        let mut rr = RoundRobin::new(4);
        assert_eq!(rr.grant_mask(0b0100), Some(2));
        assert_eq!(rr.grant_mask(0b0100), Some(2));
        assert_eq!(rr.grant_mask(0b1011), Some(3));
    }

    #[test]
    fn none_when_no_requests() {
        let mut rr = RoundRobin::new(3);
        assert_eq!(rr.grant_mask(0), None);
        // Priority pointer unchanged by failed grants.
        assert_eq!(rr.grant_mask(0b111), Some(0));
    }

    #[test]
    fn no_starvation_under_contention() {
        let mut rr = RoundRobin::new(5);
        let mut counts = [0usize; 5];
        for _ in 0..100 {
            let g = rr.grant_mask(0b11111).unwrap();
            counts[g] += 1;
        }
        for c in counts {
            assert_eq!(c, 20);
        }
    }

    #[test]
    fn full_width_arbiter_wraps_from_the_top_bit() {
        let mut rr = RoundRobin::new(64);
        assert_eq!(rr.grant_mask(1 << 63), Some(63));
        assert_eq!(rr.grant_mask(1 << 63 | 1 << 5), Some(5));
        assert_eq!(rr.grant_mask(1 << 63 | 1 << 5), Some(63));
    }

    /// The rotating scan `grant_mask` replaces: requesters `last + 1,
    /// last + 2, ...` modulo `n`, first requesting one wins.
    fn naive_grant(n: usize, last: &mut usize, mask: u64) -> Option<usize> {
        for off in 1..=n {
            let i = (*last + off) % n;
            if mask & (1 << i) != 0 {
                *last = i;
                return Some(i);
            }
        }
        None
    }

    proptest! {
        #[test]
        fn grant_mask_matches_a_naive_rotating_scan(
            n in 1usize..65,
            last_seed in any::<u64>(),
            masks in proptest::collection::vec(any::<u64>(), 1..8),
        ) {
            let last = (last_seed % n as u64) as usize;
            let width = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
            let mut rr = RoundRobin { n, last };
            let mut naive_last = last;
            for m in masks {
                let mask = m & width;
                let want = naive_grant(n, &mut naive_last, mask);
                prop_assert_eq!(rr.grant_mask(mask), want);
                prop_assert_eq!(rr.last, naive_last);
            }
        }
    }
}
