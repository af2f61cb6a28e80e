//! Credit counters. The input VC buffers they count are rings leased from
//! the router's ring pool (`crate::router::Router`).

/// Credit counter an upstream router keeps for one downstream VC.
///
/// Tracks the free buffer slots of the *logical* downstream neighbor's input
/// VC; the FLOV credit-copy protocol re-seeds it on power transitions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CreditCounter {
    avail: u16,
    cap: u16,
}

impl CreditCounter {
    pub fn new_full(cap: usize) -> CreditCounter {
        CreditCounter { avail: cap as u16, cap: cap as u16 }
    }

    #[inline]
    pub fn available(&self) -> usize {
        self.avail as usize
    }

    #[inline]
    pub fn has_credit(&self) -> bool {
        self.avail > 0
    }

    /// Consume one credit when a flit is sent downstream.
    #[inline]
    pub fn consume(&mut self) {
        assert!(self.avail > 0, "credit underflow: flow control violated");
        self.avail -= 1;
    }

    /// Return one credit when the downstream frees a slot.
    #[inline]
    pub fn refund(&mut self) {
        assert!(self.avail < self.cap, "credit overflow: more refunds than slots");
        self.avail += 1;
    }

    /// Zero the counter (paper Fig. 3(d): on downstream sleep, credits are
    /// zeroed before the relayed copy arrives).
    #[inline]
    pub fn zero(&mut self) {
        self.avail = 0;
    }

    /// Seed the counter with an absolute value (credit-copy on sleep, or
    /// set-to-full on wakeup).
    #[inline]
    pub fn set(&mut self, avail: usize) {
        assert!(avail <= self.cap as usize, "credit seed above buffer capacity");
        self.avail = avail as u16;
    }

    #[inline]
    pub fn set_full(&mut self) {
        self.avail = self.cap;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn credit_lifecycle() {
        let mut c = CreditCounter::new_full(6);
        assert_eq!(c.available(), 6);
        c.consume();
        c.consume();
        assert_eq!(c.available(), 4);
        c.refund();
        assert_eq!(c.available(), 5);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn credit_underflow_panics() {
        let mut c = CreditCounter::new_full(1);
        c.consume();
        c.consume();
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn credit_overflow_panics() {
        let mut c = CreditCounter::new_full(1);
        c.refund();
    }

    #[test]
    fn credit_copy_protocol_ops() {
        let mut c = CreditCounter::new_full(6);
        c.zero();
        assert!(!c.has_credit());
        c.set(4);
        assert_eq!(c.available(), 4);
        c.set_full();
        assert_eq!(c.available(), 6);
    }
}
