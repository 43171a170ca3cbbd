//! Property-based tests of the memory models.

use crate::bandwidth::StreamBandwidthModel;
use crate::fclk::{classify_crossing, ClockPlan, DramFreq, IodPstate};
use crate::latency::{DramLatencyModel, L3LatencyModel};
use proptest::prelude::*;

fn arb_pstate() -> impl Strategy<Value = IodPstate> {
    prop::sample::select(IodPstate::SWEEP.to_vec())
}

fn arb_dram() -> impl Strategy<Value = DramFreq> {
    prop::sample::select(DramFreq::SWEEP.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128 })]

    /// L3 latency decreases (weakly) with both reader and mesh frequency.
    #[test]
    fn l3_latency_monotone(r1 in 0.5f64..3.0, r2 in 0.5f64..3.0,
                           m1 in 0.5f64..3.0, m2 in 0.5f64..3.0) {
        let model = L3LatencyModel::default();
        let (rlo, rhi) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
        let (mlo, mhi) = if m1 <= m2 { (m1, m2) } else { (m2, m1) };
        prop_assert!(model.latency_ns(rhi, mlo) <= model.latency_ns(rlo, mlo) + 1e-12);
        prop_assert!(model.latency_ns(rlo, mhi) <= model.latency_ns(rlo, mlo) + 1e-12);
    }

    /// DRAM latency is positive and bounded for every configuration, and
    /// `auto` is never worse than every pinned setting.
    #[test]
    fn dram_latency_bounds(p in arb_pstate(), d in arb_dram()) {
        let model = DramLatencyModel::zen2();
        let lat = model.latency_for(p, d);
        prop_assert!(lat > 60.0 && lat < 200.0, "latency {lat}");
        // "According to our observations, the auto setting performs good
        // for all scenarios": best or tied-best within measurement noise
        // (the paper's own Fig. 5b has P2 tie auto at DDR4-3200).
        let auto = model.latency_for(IodPstate::Auto, d);
        let best = IodPstate::SWEEP
            .iter()
            .map(|&q| model.latency_for(q, d))
            .fold(f64::INFINITY, f64::min);
        prop_assert!(auto - best < 0.5, "auto {auto} vs best {best}");
    }

    /// Bandwidth is monotone in cores and capped by the binding limiter.
    #[test]
    fn bandwidth_monotone_and_capped(p in arb_pstate(), d in arb_dram(),
                                     n in 1u32..16) {
        let m = StreamBandwidthModel::zen2();
        let plan = ClockPlan::resolve(p, d);
        let bw_n = m.bandwidth_gbs(&plan, n);
        let bw_n1 = m.bandwidth_gbs(&plan, n + 1);
        prop_assert!(bw_n1 >= bw_n - 1e-9);
        let cap = m.link_cap_gbs(&plan).min(m.dram_cap_gbs(&plan));
        prop_assert!(bw_n <= cap + 1e-9);
        prop_assert!(bw_n > 0.0);
    }

    /// Crossing classification is symmetric and scale-invariant.
    #[test]
    fn crossing_is_symmetric(a in 400u32..3200, b in 400u32..3200) {
        prop_assert_eq!(classify_crossing(a, b), classify_crossing(b, a));
        // Doubling both clocks preserves the ratio and the class.
        prop_assert_eq!(classify_crossing(a, b), classify_crossing(a * 2, b * 2));
    }

    /// The UCLK never exceeds either of its source domains.
    #[test]
    fn uclk_is_bounded_by_both_domains(p in arb_pstate(), d in arb_dram()) {
        let plan = ClockPlan::resolve(p, d);
        prop_assert!(plan.uclk_mhz <= plan.fclk_mhz);
        prop_assert!(plan.uclk_mhz <= d.memclk_mhz());
        prop_assert!(plan.fclk_mhz <= IodPstate::MAX_FCLK_MHZ);
    }
}
