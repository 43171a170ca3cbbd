//! STREAM-triad bandwidth model (Fig. 5a).
//!
//! Three limiters govern triad bandwidth from one CCD into its local NUMA
//! node (NPS4: two DDR4 channels per quadrant):
//!
//! 1. **Per-core memory-level parallelism** — one core sustains ~26.7 GB/s
//!    of triad traffic; at very low fabric clocks the core's share of the
//!    GMI link caps it earlier.
//! 2. **The CCD's Infinity Fabric link** — combined read+write capacity
//!    scales with FCLK. This is the P3 bottleneck (and why four cores on
//!    one CCX and 2+2 across both CCXs of the CCD perform identically:
//!    they share the same link).
//! 3. **The two DDR4 channels** — peak scales with MEMCLK, derated by a
//!    controller efficiency that depends on the I/O-die P-state and drops
//!    further when MEMCLK outruns the fabric (asynchronous gear) — the
//!    mechanism behind "a higher DRAM frequency does not increase memory
//!    bandwidth significantly".
//!
//! Concurrency saturates the binding limiter following
//! `BW(n) = cap · (1 − (1 − b1/cap)^n)`: each additional core fills a
//! fraction of the remaining headroom, which reproduces the paper's
//! "two cores on one CCX already reach (almost) the maximal main memory
//! bandwidth".

use crate::fclk::{ClockPlan, IodPstate};

/// Calibrated STREAM-triad bandwidth model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamBandwidthModel {
    /// Single-core MLP-limited triad bandwidth (GB/s).
    pub core_mlp_gbs: f64,
    /// Single stream's share of the GMI link, in bytes per FCLK cycle.
    pub core_link_bytes_per_fclk: f64,
    /// CCD GMI link capacity in bytes per FCLK cycle (read + write).
    pub link_bytes_per_fclk: f64,
    /// DDR4 channels per NUMA node (2 in the paper's NPS4 setup).
    pub channels_per_node: u32,
    /// Controller efficiency derate when MEMCLK exceeds FCLK.
    pub async_gear_factor: f64,
}

impl Default for StreamBandwidthModel {
    fn default() -> Self {
        Self::zen2()
    }
}

impl StreamBandwidthModel {
    /// Calibration for the paper's EPYC 7502, NPS4, Intel-compiled STREAM.
    pub fn zen2() -> Self {
        Self {
            core_mlp_gbs: 26.7,
            core_link_bytes_per_fclk: 28.0,
            link_bytes_per_fclk: 40.0,
            channels_per_node: 2,
            async_gear_factor: 0.928,
        }
    }

    /// Memory-controller efficiency at matched gear for a P-state.
    ///
    /// Calibrated per P-state (Fig. 5a saturated cells); the spread tracks
    /// how well the crossing scheduler fills the channel command bus.
    pub fn controller_efficiency(&self, pstate: IodPstate) -> f64 {
        match pstate {
            IodPstate::P0 => 0.812,
            IodPstate::P1 => 0.829,
            IodPstate::P2 => 0.844,
            IodPstate::P3 => 0.835,
            IodPstate::Auto => 0.815,
        }
    }

    /// Single-core triad bandwidth under a clock plan (GB/s).
    pub fn single_core_gbs(&self, plan: &ClockPlan) -> f64 {
        let link_share = self.core_link_bytes_per_fclk * plan.fclk_ghz();
        self.core_mlp_gbs.min(link_share)
    }

    /// The CCD link capacity under a clock plan (GB/s).
    pub fn link_cap_gbs(&self, plan: &ClockPlan) -> f64 {
        self.link_bytes_per_fclk * plan.fclk_ghz()
    }

    /// The local node's effective DRAM capacity under a clock plan (GB/s).
    pub fn dram_cap_gbs(&self, plan: &ClockPlan) -> f64 {
        let raw = self.channels_per_node as f64 * plan.dram.channel_peak_gbs();
        let mut eff = self.controller_efficiency(plan.pstate);
        if plan.dram.memclk_mhz() > plan.fclk_mhz {
            eff *= self.async_gear_factor;
        }
        raw * eff
    }

    /// Triad bandwidth for `cores` concurrent readers on one CCD (GB/s).
    ///
    /// The paper's Fig. 5a sweeps 1–4 cores; "4 (2 CCX)" places 2+2 across
    /// the CCD's two CCXs, which shares the same link and node and is thus
    /// identical here by construction.
    ///
    /// # Panics
    /// Panics for zero cores.
    pub fn bandwidth_gbs(&self, plan: &ClockPlan, cores: u32) -> f64 {
        assert!(cores > 0, "at least one core must stream");
        let b1 = self.single_core_gbs(plan);
        let cap = self.link_cap_gbs(plan).min(self.dram_cap_gbs(plan));
        if b1 >= cap {
            return cap;
        }
        cap * (1.0 - (1.0 - b1 / cap).powi(cores as i32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fclk::DramFreq;

    fn bw(p: IodPstate, d: DramFreq, cores: u32) -> f64 {
        StreamBandwidthModel::zen2().bandwidth_gbs(&ClockPlan::resolve(p, d), cores)
    }

    #[test]
    fn fig5a_matrix_within_tolerance() {
        // (pstate, dram, [1,2,3,4 cores] paper GB/s), 10 % tolerance.
        let cases = [
            (IodPstate::P3, DramFreq::Mhz1467, [22.2, 28.3, 28.9, 31.7]),
            (IodPstate::P2, DramFreq::Mhz1467, [27.2, 33.7, 37.6, 39.6]),
            (IodPstate::P1, DramFreq::Mhz1467, [26.8, 32.9, 36.8, 38.8]),
            (IodPstate::P0, DramFreq::Mhz1467, [26.5, 32.4, 35.9, 38.1]),
            (IodPstate::Auto, DramFreq::Mhz1467, [26.5, 32.6, 36.0, 38.2]),
            (IodPstate::P3, DramFreq::Mhz1600, [22.2, 28.2, 30.0, 30.6]),
            (IodPstate::P2, DramFreq::Mhz1600, [27.1, 33.7, 39.1, 40.1]),
            (IodPstate::P1, DramFreq::Mhz1600, [26.8, 32.9, 38.5, 39.5]),
            (IodPstate::P0, DramFreq::Mhz1600, [26.4, 32.4, 37.8, 38.6]),
            (IodPstate::Auto, DramFreq::Mhz1600, [26.5, 32.5, 37.9, 38.8]),
        ];
        for (p, d, expect) in cases {
            for (i, &e) in expect.iter().enumerate() {
                let got = bw(p, d, i as u32 + 1);
                let err = (got - e).abs() / e;
                assert!(
                    err < 0.10,
                    "P{p}/{d}/{} cores: {got:.1} vs paper {e} GB/s (err {err:.3})",
                    i + 1
                );
            }
        }
    }

    #[test]
    fn four_cores_across_two_ccxs_equal_one_ccx() {
        // Same CCD link, same node: "4 (2 CCX)" == "4" in the figure.
        let plan = ClockPlan::resolve(IodPstate::Auto, DramFreq::Mhz1467);
        let m = StreamBandwidthModel::zen2();
        assert_eq!(m.bandwidth_gbs(&plan, 4), m.bandwidth_gbs(&plan, 4));
    }

    #[test]
    fn two_cores_nearly_saturate() {
        // "two cores on one CCX already reach [almost] the maximal main
        // memory bandwidth".
        let plan = ClockPlan::resolve(IodPstate::Auto, DramFreq::Mhz1467);
        let m = StreamBandwidthModel::zen2();
        let two = m.bandwidth_gbs(&plan, 2);
        let four = m.bandwidth_gbs(&plan, 4);
        assert!(two / four > 0.85, "two cores should be within 15 % of saturation");
    }

    #[test]
    fn p3_is_link_limited() {
        let m = StreamBandwidthModel::zen2();
        let plan = ClockPlan::resolve(IodPstate::P3, DramFreq::Mhz1467);
        assert!(m.link_cap_gbs(&plan) < m.dram_cap_gbs(&plan));
        // Even single-core streaming feels the 800 MHz link.
        assert!(m.single_core_gbs(&plan) < m.core_mlp_gbs);
    }

    #[test]
    fn higher_dram_clock_barely_helps() {
        // Fig. 5a: +0.5-0.6 GB/s saturated at auto, not the raw +9 %.
        let sat_2933 = bw(IodPstate::Auto, DramFreq::Mhz1467, 4);
        let sat_3200 = bw(IodPstate::Auto, DramFreq::Mhz1600, 4);
        let gain = sat_3200 / sat_2933 - 1.0;
        assert!(gain > 0.0 && gain < 0.05, "gain {gain:.3} should be marginal");
    }

    #[test]
    fn bandwidth_is_monotone_in_cores() {
        let m = StreamBandwidthModel::zen2();
        for p in IodPstate::SWEEP {
            for d in DramFreq::SWEEP {
                let plan = ClockPlan::resolve(p, d);
                let mut prev = 0.0;
                for n in 1..=8 {
                    let b = m.bandwidth_gbs(&plan, n);
                    assert!(b >= prev - 1e-9, "P{p}/{d}: {b} < {prev} at n={n}");
                    prev = b;
                }
                assert!(prev <= m.link_cap_gbs(&plan).min(m.dram_cap_gbs(&plan)) + 1e-9);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        let _ = bw(IodPstate::Auto, DramFreq::Mhz1467, 0);
    }
}
