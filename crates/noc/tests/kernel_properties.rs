//! Property tests for the kernel data structures through the public API:
//! arrival-wheel ordering, input VC FIFO discipline, PRNG statistics, flit
//! integrity coding, and latency-breakdown arithmetic.

use flov_noc::config::NocConfig;
use flov_noc::flit::{Flit, FlitKind};
use flov_noc::link::{CreditMsg, Wheel};
use flov_noc::packet::{DeliveredPacket, Packet};
use flov_noc::rng::Rng;
use flov_noc::router::Router;
use proptest::prelude::*;

fn flit(packet: u64, idx: u16, len: u16) -> Flit {
    Packet { id: packet, src: 0, dst: 1, vnet: 0, len, birth: 0 }.flit(idx, 0)
}

proptest! {
    /// Wheel delivery is a stable sort by arrival cycle: sends made over
    /// many cycles, each landing 1..=3 cycles ahead (the reach of a
    /// one-cycle link), come out at exactly their arrival cycle, same-cycle
    /// arrivals in send order.
    #[test]
    fn wheel_delivery_is_stable_by_arrival(
        ops in prop::collection::vec((0usize..8, 1u64..4, any::<bool>()), 1..80),
    ) {
        let mut w = Wheel::new(8, 2, 1);
        let mut now = 0u64;
        let mut sent = Vec::new(); // (arrival, id)
        let mut out = Vec::new(); // (delivered at, id)
        let deliver = |w: &mut Wheel, now: u64, out: &mut Vec<(u64, u64)>| {
            let slot = w.take(now);
            out.extend(slot.flits.iter().map(|&(_, f)| (now, f.packet)));
            w.retire(now, slot);
        };
        for (i, &(link, ahead, step)) in ops.iter().enumerate() {
            w.send_flit(link, now + ahead, flit(i as u64, 0, 1));
            sent.push((now + ahead, i as u64));
            if step {
                deliver(&mut w, now, &mut out);
                now += 1;
            }
        }
        while !w.is_empty() {
            deliver(&mut w, now, &mut out);
            now += 1;
        }
        sent.sort_by_key(|&(a, _)| a); // stable: preserves send order per cycle
        prop_assert_eq!(out, sent);
    }

    /// Flits, credits and ejections never interfere on the wheel.
    #[test]
    fn wheel_kinds_are_independent(
        n_flits in 0usize..20,
        n_credits in 0usize..20,
        n_ejects in 0usize..20,
    ) {
        let mut w = Wheel::new(4, 4, 1);
        for i in 0..n_flits {
            w.send_flit(i % 4, 1 + (i % 3) as u64, flit(i as u64, 0, 1));
        }
        for i in 0..n_credits {
            w.send_credit(i % 4, 1 + (i % 3) as u64, CreditMsg { vnet: 0, vc: (i % 4) as u8 });
        }
        for i in 0..n_ejects {
            w.send_eject((i % 4) as u16, 3, flit(i as u64, 0, 1));
        }
        prop_assert_eq!(w.flits(), n_flits + n_ejects);
        prop_assert_eq!(w.wire_flits().iter().sum::<u32>() as usize, n_flits);
        let (mut got_f, mut got_c, mut got_e) = (0, 0, 0);
        for now in 0..4u64 {
            let slot = w.take(now);
            got_f += slot.flits.len();
            got_c += slot.credits.len();
            got_e += slot.ejects.len();
            w.retire(now, slot);
        }
        prop_assert_eq!((got_f, got_c, got_e), (n_flits, n_credits, n_ejects));
        prop_assert!(w.is_empty());
        prop_assert_eq!(w.wire_flits().iter().sum::<u32>(), 0);
    }

    /// Each input VC of a router is an exact FIFO ring over its slots of
    /// the flit plane: random pushes and pops on three VCs of one port
    /// (depth 6, so the rings wrap) come out in order per VC, never touch
    /// another VC, and keep the occupancy mirrors equal to the model.
    #[test]
    fn buffer_fifo_discipline(
        ops in prop::collection::vec((0usize..3, any::<bool>()), 1..300),
    ) {
        let cfg = NocConfig::default();
        prop_assert_eq!(cfg.buf_depth, 6);
        let mut r = Router::new(&cfg, 9);
        let port = 2;
        let mut model: [std::collections::VecDeque<u16>; 3] = Default::default();
        let mut next = [0u16; 3];
        for (vc, push) in ops {
            let s = r.slot(port, vc);
            if push {
                if model[vc].len() < cfg.buf_depth {
                    r.push_flit(port, s, flit(vc as u64, next[vc], u16::MAX), 0);
                    model[vc].push_back(next[vc]);
                    next[vc] += 1;
                }
            } else if let Some(want) = model[vc].pop_front() {
                let f = r.pop_flit(port, s);
                prop_assert_eq!((f.packet, f.flit_idx), (vc as u64, want));
            }
            for (j, m) in model.iter().enumerate() {
                let s = r.slot(port, j);
                prop_assert_eq!(r.inputs[s].len(), m.len());
                prop_assert_eq!(r.free_slots(s), cfg.buf_depth - m.len());
                prop_assert_eq!(
                    r.front(s).map(|f| (f.packet, f.flit_idx)),
                    m.front().map(|&i| (j as u64, i))
                );
            }
            let busy = model
                .iter()
                .enumerate()
                .fold(0u64, |b, (j, m)| b | u64::from(!m.is_empty()) << j);
            prop_assert_eq!(r.vc_busy[port], busy);
            let buffered: usize = model.iter().map(|m| m.len()).sum();
            prop_assert_eq!(r.port_occupancy[port] as usize, buffered);
            prop_assert_eq!(r.buffered_flits(), r.port_occupancy[port]);
        }
    }

    /// Every flit of every packet carries a verifiable payload, and
    /// corrupting any bit is detected.
    #[test]
    fn flit_integrity_detects_any_single_bitflip(
        packet in 0u64..1_000_000,
        idx in 0u16..16,
        bit in 0u32..64,
    ) {
        let mut f = flit(packet, idx, 16);
        prop_assert!(f.integrity_ok());
        f.payload ^= 1u64 << bit;
        prop_assert!(!f.integrity_ok());
    }

    /// The latency breakdown always sums exactly to the total latency.
    #[test]
    fn breakdown_partition_is_exact(
        birth in 0u64..1000,
        extra in 0u64..500,
        hops_router in 1u16..12,
        hops_flov in 0u16..6,
        len in 1u16..8,
    ) {
        let hops_link = hops_router + hops_flov; // structural relationship
        let min = hops_router as u64 * 3 + hops_link as u64 + (len - 1) as u64
            + hops_flov as u64;
        let d = DeliveredPacket {
            id: 1, src: 0, dst: 1, vnet: 0, len,
            birth,
            inject: birth,
            eject: birth + min + extra,
            hops_router, hops_flov, hops_link,
            used_escape: false,
        };
        let total = d.total_latency();
        let sum = d.router_latency(3) + d.link_latency(1) + d.serialization_latency()
            + d.flov_latency() + d.contention_latency(3, 1);
        prop_assert_eq!(total, sum);
        prop_assert_eq!(d.contention_latency(3, 1), extra);
    }

    /// FlitKind::of is total and consistent for all positions.
    #[test]
    fn flit_kind_classification(len in 1u16..64) {
        for idx in 0..len {
            let kind = FlitKind::of(idx, len);
            prop_assert_eq!(kind.is_head(), idx == 0);
            prop_assert_eq!(kind.is_tail(), idx == len - 1);
        }
    }

    /// PRNG `below` is unbiased enough across arbitrary bounds.
    #[test]
    fn rng_below_bounds_hold(seed in 0u64..u64::MAX, bound in 1u64..10_000) {
        let mut r = Rng::new(seed);
        for _ in 0..100 {
            prop_assert!(r.below(bound) < bound);
        }
    }
}

/// Lower edge of the power-of-two bucket a latency sample lands in
/// (bucket 0 absorbs 0 and 1) — the oracle for `quantile_lower`.
fn bucket_lower(s: u64) -> u64 {
    1u64 << (64 - s.max(1).leading_zeros() as usize - 1).min(31)
}

proptest! {
    /// ActiveSet agrees with a BTreeSet model under arbitrary op
    /// sequences: membership, len/is_empty after every op, and the
    /// ascending-order snapshot at the end. Each op is decoded from one
    /// integer (low bits pick insert/remove/query, the rest the index) so
    /// the sequence shrinks to a reproducible single value per step.
    #[test]
    fn active_set_matches_btreeset_model(
        cap in 1usize..200,
        ops in prop::collection::vec(any::<u64>(), 1..300),
    ) {
        let mut set = flov_noc::active::ActiveSet::new(cap);
        let mut model = std::collections::BTreeSet::new();
        for &v in &ops {
            let idx = (v / 4) as usize % cap;
            match v % 4 {
                // Bias toward inserts so the set actually fills up.
                0 | 3 => {
                    set.insert(idx);
                    model.insert(idx);
                }
                1 => {
                    set.remove(idx);
                    model.remove(&idx);
                }
                _ => prop_assert_eq!(set.contains(idx), model.contains(&idx)),
            }
            prop_assert_eq!(set.len(), model.len());
            prop_assert_eq!(set.is_empty(), model.is_empty());
        }
        let mut out = Vec::new();
        set.collect_into(&mut out);
        let expect: Vec<u32> = model.iter().map(|&i| i as u32).collect();
        prop_assert_eq!(out, expect);
        prop_assert_eq!(set.capacity(), cap);
    }

    /// LatencyHistogram quantiles against a sorted-vector oracle: for any
    /// sample set and quantile, `quantile_lower(q)` is exactly the lower
    /// bucket edge of the ceil(n*q)-th smallest sample — so the reported
    /// value never overstates the true quantile, and understates it by
    /// less than 2x.
    #[test]
    fn histogram_quantiles_match_sorted_oracle(
        samples in prop::collection::vec(0u64..200_000, 1..400),
        q_drawn in 0.0f64..1.0,
    ) {
        let mut h = flov_noc::stats::LatencyHistogram::default();
        for &s in &samples {
            h.record(s);
        }
        prop_assert_eq!(h.count(), samples.len() as u64);
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q in [q_drawn, 0.0, 0.5, 0.95, 0.99, 1.0] {
            let target = ((sorted.len() as f64 * q).ceil() as usize).max(1);
            let sample = sorted[target - 1];
            let edge = h.quantile_lower(q);
            prop_assert_eq!(edge, bucket_lower(sample), "q = {}", q);
            prop_assert!(edge <= sample.max(1) && sample.max(1) < 2 * edge);
        }
        let (p50, p95, p99) = h.percentiles();
        prop_assert!(p50 <= p95 && p95 <= p99);
    }
}
