//! Run statistics: aggregate latency (with the Fig. 8 breakdown), throughput,
//! and an optional per-interval latency timeline (Fig. 10).

use crate::packet::DeliveredPacket;
use serde::{Deserialize, Serialize};

/// Accumulated latency components over all measured packets, in cycle-sums.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct LatencyBreakdown {
    pub router: u64,
    pub link: u64,
    pub serialization: u64,
    pub contention: u64,
    pub flov: u64,
}

impl LatencyBreakdown {
    pub fn total(&self) -> u64 {
        self.router + self.link + self.serialization + self.contention + self.flov
    }

    /// Per-packet averages given a packet count.
    pub fn averages(&self, packets: u64) -> [f64; 5] {
        if packets == 0 {
            return [0.0; 5];
        }
        let n = packets as f64;
        [
            self.router as f64 / n,
            self.link as f64 / n,
            self.serialization as f64 / n,
            self.contention as f64 / n,
            self.flov as f64 / n,
        ]
    }
}

/// Power-of-two latency histogram: bucket `i` counts total latencies in
/// `[2^i, 2^(i+1))` (bucket 0 covers 0 and 1). Compact, allocation-free,
/// and good enough for p50/p95/p99 tails.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    buckets: [u64; 32],
    count: u64,
}

impl LatencyHistogram {
    #[inline]
    fn bucket_of(latency: u64) -> usize {
        (64 - latency.max(1).leading_zeros() as usize - 1).min(31)
    }

    /// Record one latency sample.
    #[inline]
    pub fn record(&mut self, latency: u64) {
        self.buckets[Self::bucket_of(latency)] += 1;
        self.count += 1;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The *lower edge* of the bucket containing the q-quantile
    /// (0.0..=1.0). Convention: with bucket `i` spanning `[2^i, 2^(i+1))`,
    /// the reported value is `2^i`, so the true quantile sample `s`
    /// satisfies `value <= s < 2 * value` (bucket 0, which also absorbs
    /// latency 0, reports 1). The previous convention returned the bucket's
    /// *upper* edge `2^(i+1) - 1`, which overstated p50/p95/p99 by up to
    /// 2x; the lower edge never overstates. Returns 0 with no samples.
    pub fn quantile_lower(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target.max(1) {
                return 1u64 << i;
            }
        }
        u64::MAX
    }

    /// Shorthand: (p50, p95, p99) bucket lower edges.
    pub fn percentiles(&self) -> (u64, u64, u64) {
        (self.quantile_lower(0.50), self.quantile_lower(0.95), self.quantile_lower(0.99))
    }
}

/// One bucket of the latency timeline: packets ejected in
/// `[start, start + width)`.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct IntervalSample {
    pub start: u64,
    pub packets: u64,
    pub latency_sum: u64,
}

impl IntervalSample {
    pub fn avg_latency(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.latency_sum as f64 / self.packets as f64
        }
    }
}

/// Statistics collector. Packets *born* inside the measurement window are
/// counted; warmup packets are delivered but ignored, matching the paper's
/// 10k-cycle warmup methodology.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct NetStats {
    /// Packets born at or after this cycle are measured.
    pub measure_from: u64,
    /// Packets born after this cycle are not measured (exclusive bound);
    /// `u64::MAX` means "until the end".
    pub measure_until: u64,
    link_latency: u32,
    /// Measured packets delivered.
    pub packets: u64,
    /// Measured flits delivered.
    pub flits: u64,
    /// Sum of total latencies of measured packets.
    pub latency_sum: u64,
    /// Max total latency observed.
    pub latency_max: u64,
    pub breakdown: LatencyBreakdown,
    /// Measured packets that used the escape sub-network.
    pub escape_packets: u64,
    /// Sum of per-packet powered-router hop counts.
    pub hop_sum: u64,
    /// Sum of per-packet FLOV hop counts.
    pub flov_hop_sum: u64,
    /// Latency histogram of measured packets (percentile estimation).
    pub histogram: LatencyHistogram,
    /// Per-vnet (message class) packet counts and latency sums, up to 8
    /// vnets — separates e.g. coherence-control from data-response latency
    /// in full-system runs.
    pub per_vnet: [(u64, u64); 8],
    /// Interval width for the timeline (0 disables).
    pub interval_width: u64,
    /// Latency timeline by ejection cycle (includes warmup packets so the
    /// full execution is visible, as in Fig. 10).
    pub timeline: Vec<IntervalSample>,
    /// Self-addressed packet requests rejected at the NIC (`src == dst`
    /// has no loopback path in the model); counted over the whole run,
    /// not just the measurement window. Serialized with the rest of the
    /// stats — see DESIGN.md §4c for the schema note.
    pub self_addressed_dropped: u64,
}

impl NetStats {
    pub fn new(measure_from: u64, link_latency: u32) -> NetStats {
        NetStats {
            measure_from,
            measure_until: u64::MAX,
            link_latency,
            packets: 0,
            flits: 0,
            latency_sum: 0,
            latency_max: 0,
            breakdown: LatencyBreakdown::default(),
            escape_packets: 0,
            hop_sum: 0,
            flov_hop_sum: 0,
            histogram: LatencyHistogram::default(),
            per_vnet: [(0, 0); 8],
            interval_width: 0,
            timeline: Vec::new(),
            self_addressed_dropped: 0,
        }
    }

    /// Record a delivered packet.
    pub fn record(&mut self, d: &DeliveredPacket) {
        if let Some(bucket) = d.eject.checked_div(self.interval_width) {
            let bucket = bucket as usize;
            if self.timeline.len() <= bucket {
                self.timeline.resize_with(bucket + 1, IntervalSample::default);
                for (i, s) in self.timeline.iter_mut().enumerate() {
                    s.start = i as u64 * self.interval_width;
                }
            }
            let s = &mut self.timeline[bucket];
            s.packets += 1;
            s.latency_sum += d.total_latency();
        }
        if d.birth < self.measure_from || d.birth >= self.measure_until {
            return;
        }
        self.packets += 1;
        self.flits += d.len as u64;
        let total = d.total_latency();
        self.latency_sum += total;
        self.latency_max = self.latency_max.max(total);
        self.histogram.record(total);
        if (d.vnet as usize) < self.per_vnet.len() {
            let e = &mut self.per_vnet[d.vnet as usize];
            e.0 += 1;
            e.1 += total;
        }
        self.breakdown.router += d.router_latency();
        self.breakdown.link += d.link_latency(self.link_latency);
        self.breakdown.serialization += d.serialization_latency();
        self.breakdown.flov += d.flov_latency();
        self.breakdown.contention += d.contention_latency(self.link_latency);
        if d.used_escape {
            self.escape_packets += 1;
        }
        self.hop_sum += d.hops_router as u64;
        self.flov_hop_sum += d.hops_flov as u64;
    }

    /// Mean total packet latency over the measurement window.
    pub fn avg_latency(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.latency_sum as f64 / self.packets as f64
        }
    }

    /// Mean powered-router hops per packet.
    pub fn avg_hops(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.hop_sum as f64 / self.packets as f64
        }
    }

    /// Mean FLOV-latch hops per packet.
    pub fn avg_flov_hops(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.flov_hop_sum as f64 / self.packets as f64
        }
    }

    /// Mean latency of one vnet's packets (0.0 if none).
    pub fn vnet_avg_latency(&self, vnet: usize) -> f64 {
        let (n, sum) = self.per_vnet[vnet];
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64
        }
    }

    /// Delivered throughput in flits per cycle over `cycles`.
    pub fn throughput(&self, cycles: u64) -> f64 {
        if cycles == 0 {
            0.0
        } else {
            self.flits as f64 / cycles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delivered(birth: u64, eject: u64) -> DeliveredPacket {
        DeliveredPacket {
            id: 1,
            src: 0,
            dst: 5,
            vnet: 0,
            len: 4,
            birth,
            inject: birth,
            eject,
            hops_router: 3,
            hops_flov: 1,
            hops_link: 4,
            used_escape: false,
        }
    }

    #[test]
    fn warmup_packets_excluded() {
        let mut s = NetStats::new(100, 1);
        s.record(&delivered(50, 80));
        assert_eq!(s.packets, 0);
        s.record(&delivered(100, 140));
        assert_eq!(s.packets, 1);
        assert_eq!(s.latency_sum, 40);
    }

    #[test]
    fn measure_until_bound_excludes() {
        let mut s = NetStats::new(0, 1);
        s.measure_until = 100;
        s.record(&delivered(99, 120));
        s.record(&delivered(100, 130));
        assert_eq!(s.packets, 1);
    }

    #[test]
    fn breakdown_components_sum_to_total() {
        let mut s = NetStats::new(0, 1);
        s.record(&delivered(0, 60));
        s.record(&delivered(10, 50));
        assert_eq!(s.breakdown.total(), s.latency_sum);
    }

    #[test]
    fn averages_divide_by_count() {
        let mut s = NetStats::new(0, 1);
        s.record(&delivered(0, 40));
        s.record(&delivered(0, 60));
        assert!((s.avg_latency() - 50.0).abs() < 1e-9);
        assert!((s.avg_hops() - 3.0).abs() < 1e-9);
        assert!((s.avg_flov_hops() - 1.0).abs() < 1e-9);
        let avgs = s.breakdown.averages(s.packets);
        let sum: f64 = avgs.iter().sum();
        assert!((sum - 50.0).abs() < 1e-9);
    }

    #[test]
    fn timeline_buckets_by_ejection() {
        let mut s = NetStats { interval_width: 100, ..NetStats::new(1_000_000, 1) };
        s.record(&delivered(0, 50));
        s.record(&delivered(0, 250));
        assert_eq!(s.timeline.len(), 3);
        assert_eq!(s.timeline[0].packets, 1);
        assert_eq!(s.timeline[1].packets, 0);
        assert_eq!(s.timeline[2].packets, 1);
        assert_eq!(s.timeline[2].start, 200);
        // Timeline includes warmup packets; measured stats do not.
        assert_eq!(s.packets, 0);
    }

    #[test]
    fn histogram_buckets_powers_of_two() {
        let mut h = LatencyHistogram::default();
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        // The largest sample (1000) sits in bucket 9 = [512, 1024); its
        // lower edge is 512.
        assert_eq!(h.quantile_lower(1.0), 512);
        // The 4th-smallest sample (3) sits in bucket 1 = [2, 4).
        assert_eq!(h.quantile_lower(0.5), 2);
    }

    #[test]
    fn histogram_percentiles_ordered() {
        // 20 samples of each value in 10..=59: p50 target is the 500th
        // sample = 32 (bucket 5), and p95/p99 land in the same bucket.
        let mut h = LatencyHistogram::default();
        for i in 0..1000u64 {
            h.record(10 + i % 50);
        }
        let (p50, p95, p99) = h.percentiles();
        assert!(p50 <= p95 && p95 <= p99);
        assert_eq!((p50, p95, p99), (32, 32, 32));
        assert_eq!(h.quantile_lower(0.0), h.quantile_lower(0.001));
    }

    #[test]
    fn quantile_lower_exact_values() {
        // Pins the lower-edge convention: the reported value is the lower
        // edge 2^i of the bucket holding the ceil(count * q)-th sample, so
        // value <= sample < 2 * value (bucket 0 reports 1 and also covers
        // latency 0).
        let mut h = LatencyHistogram::default();
        for v in [1u64, 2, 16, 100, 300] {
            h.record(v);
        }
        assert_eq!(h.quantile_lower(0.2), 1); // 1st sample: 1, bucket 0
        assert_eq!(h.quantile_lower(0.4), 2); // 2nd sample: 2, bucket 1
        assert_eq!(h.quantile_lower(0.6), 16); // 3rd sample: 16, bucket 4
        assert_eq!(h.quantile_lower(0.8), 64); // 4th sample: 100 in [64,128)
        assert_eq!(h.quantile_lower(1.0), 256); // 5th sample: 300 in [256,512)
        assert_eq!(LatencyHistogram::default().quantile_lower(0.5), 0);
        let mut zeros = LatencyHistogram::default();
        zeros.record(0);
        assert_eq!(zeros.quantile_lower(1.0), 1);
    }

    #[test]
    fn per_vnet_latency_separated() {
        let mut s = NetStats::new(0, 1);
        s.record(&delivered(0, 40));
        let mut d1 = delivered(0, 100);
        d1.vnet = 2;
        s.record(&d1);
        assert_eq!(s.per_vnet[0], (1, 40));
        assert_eq!(s.per_vnet[2], (1, 100));
        assert!((s.vnet_avg_latency(0) - 40.0).abs() < 1e-9);
        assert!((s.vnet_avg_latency(2) - 100.0).abs() < 1e-9);
        assert_eq!(s.vnet_avg_latency(5), 0.0);
    }

    #[test]
    fn stats_feed_histogram() {
        let mut s = NetStats::new(0, 1);
        s.record(&delivered(0, 40));
        s.record(&delivered(0, 400));
        assert_eq!(s.histogram.count(), 2);
        // Latency 400 falls in bucket [256, 512); lower edge 256.
        assert_eq!(s.histogram.quantile_lower(1.0), 256);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = NetStats::new(0, 1);
        assert_eq!(s.avg_latency(), 0.0);
        assert_eq!(s.throughput(100), 0.0);
        assert_eq!(s.breakdown.averages(0), [0.0; 5]);
    }
}
