//! Load-latency models: CCX L3 (Fig. 4) and DRAM (Fig. 5b).

use crate::fclk::{ClockPlan, CrossingQuality, DramFreq, IodPstate};

/// L3 hit latency under mixed core frequencies (Fig. 4).
///
/// The L3/CCX clock mesh follows the *fastest* core in the complex
/// (Section V-C: "an increased L3-cache frequency that is defined by the
/// highest clocked core in the CCX"). An L3 hit therefore splits into a
/// core-domain share (issue, L1/L2 lookup and fill on the reader's clock)
/// and a mesh-domain share (slice access on the L3 clock).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct L3LatencyModel {
    /// Core-domain share in core cycles.
    pub core_cycles: f64,
    /// Mesh-domain share in L3 cycles.
    pub mesh_cycles: f64,
}

impl Default for L3LatencyModel {
    /// Zen 2 values, calibrated from the paper's Fig. 4: with all cores at
    /// the same frequency `f`, an L3 hit costs `(22.7 + 15.1) / f`; the
    /// paper measures 25.2 ns at 1.5 GHz, 17.2 ns at 2.2 GHz and 15.2 ns
    /// at 2.5 GHz, and the mixed-frequency cells separate the two shares.
    fn default() -> Self {
        Self { core_cycles: 22.7, mesh_cycles: 15.1 }
    }
}

impl L3LatencyModel {
    /// The L3 mesh frequency for a CCX: the maximum effective core clock
    /// in the complex, floored at the architecture's 400 MHz minimum
    /// ("L3 frequencies below 400 MHz are not supported").
    pub fn mesh_ghz(core_clocks_ghz: &[f64]) -> f64 {
        let max = core_clocks_ghz.iter().copied().fold(0.0f64, f64::max);
        max.max(0.4)
    }

    /// Pointer-chase L3 hit latency in nanoseconds for a reader at
    /// `reader_ghz` in a CCX whose mesh runs at `mesh_ghz`.
    pub fn latency_ns(&self, reader_ghz: f64, mesh_ghz: f64) -> f64 {
        assert!(reader_ghz > 0.0 && mesh_ghz > 0.0, "frequencies must be positive");
        self.core_cycles / reader_ghz + self.mesh_cycles / mesh_ghz
    }
}

/// DRAM load latency through the I/O die (Fig. 5b).
///
/// `latency = core_path + fabric_cycles/FCLK + controller_cycles/UCLK +
/// crossing penalties`. The penalties implement the paper's observation
/// that `auto` (coupled domains) beats the pinned fastest P-state and that
/// mismatched DRAM/fabric clocks hurt: a pinned plan always pays the
/// generic arbitration cost, and an unaligned MEMCLK/UCLK pair pays full
/// synchronizer margin on every transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramLatencyModel {
    /// Core + CCX + DRAM-array share, independent of I/O-die clocks (ns).
    pub fixed_ns: f64,
    /// Fabric cycles on the request/response path (converted via FCLK).
    pub fabric_ns_ghz: f64,
    /// Memory-controller cycles (converted via UCLK).
    pub controller_ns_ghz: f64,
    /// Cost of the pinned (non-auto) arbitration path (ns).
    pub pinned_penalty_ns: f64,
    /// Crossing penalty when MEMCLK/UCLK form a schedulable ratio (ns).
    pub aligned_penalty_ns: f64,
    /// Crossing penalty for plesiochronous MEMCLK/UCLK (ns).
    pub misaligned_penalty_ns: f64,
}

impl Default for DramLatencyModel {
    fn default() -> Self {
        Self::zen2()
    }
}

impl DramLatencyModel {
    /// Calibration for the paper's EPYC 7502 (prefetchers off, huge
    /// pages): reproduces the auto = 92.0 ns / pinned P0 = 96.0 ns split
    /// and the Fig. 5b matrix within a few percent.
    pub fn zen2() -> Self {
        Self {
            fixed_ns: 42.2,
            fabric_ns_ghz: 36.5,
            controller_ns_ghz: 36.5,
            pinned_penalty_ns: 4.0,
            aligned_penalty_ns: 3.9,
            misaligned_penalty_ns: 13.0,
        }
    }

    /// Idle pointer-chase latency for a clock plan, in nanoseconds.
    pub fn latency_ns(&self, plan: &ClockPlan) -> f64 {
        let mut ns = self.fixed_ns
            + self.fabric_ns_ghz / plan.fclk_ghz()
            + self.controller_ns_ghz / plan.uclk_ghz();
        if plan.pinned {
            ns += self.pinned_penalty_ns;
        }
        ns += match plan.crossing {
            CrossingQuality::Synchronous => 0.0,
            CrossingQuality::Aligned => self.aligned_penalty_ns,
            CrossingQuality::Misaligned => self.misaligned_penalty_ns,
        };
        ns
    }

    /// Convenience: latency for a (P-state, DRAM clock) pair.
    pub fn latency_for(&self, pstate: IodPstate, dram: DramFreq) -> f64 {
        self.latency_ns(&ClockPlan::resolve(pstate, dram))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_follows_fastest_core_with_400mhz_floor() {
        assert_eq!(L3LatencyModel::mesh_ghz(&[1.5, 2.2, 2.5, 1.5]), 2.5);
        assert_eq!(L3LatencyModel::mesh_ghz(&[1.5; 4]), 1.5);
        assert_eq!(L3LatencyModel::mesh_ghz(&[0.2]), 0.4);
    }

    #[test]
    fn fig4_matrix_within_tolerance() {
        // Paper Fig. 4: rows = reader frequency, columns = other cores.
        // (reader_ghz, mesh_ghz from max(reader, others), expected ns)
        let m = L3LatencyModel::default();
        let cases = [
            (1.5, 1.5, 25.2),
            (1.5, 2.2, 22.0),
            (1.5, 2.5, 21.2),
            (2.2, 2.2, 17.2),
            (2.5, 2.5, 15.2),
        ];
        for (reader, mesh, expect) in cases {
            let got = m.latency_ns(reader, mesh);
            let err = (got - expect).abs() / expect;
            assert!(err < 0.015, "reader {reader} mesh {mesh}: {got:.2} vs {expect} ns");
        }
    }

    #[test]
    fn fig4_known_deviation_reader_22_others_25() {
        // The two-domain model predicts ~16.4 ns where the paper measured
        // 17.2 ns (documented deviation in DESIGN.md §6). Keep the model
        // honest: it must stay below the same-frequency 17.2 ns value.
        let m = L3LatencyModel::default();
        let got = m.latency_ns(2.2, 2.5);
        assert!(got < 17.2 && got > 15.2, "got {got:.2}");
    }

    #[test]
    fn auto_beats_pinned_p0_at_2933() {
        // Paper: 92.0 ns (auto) vs 96.0 ns (P0).
        let m = DramLatencyModel::zen2();
        let auto = m.latency_for(IodPstate::Auto, DramFreq::Mhz1467);
        let p0 = m.latency_for(IodPstate::P0, DramFreq::Mhz1467);
        assert!((auto - 92.0).abs() < 1.0, "auto {auto:.1}");
        assert!((p0 - 96.0).abs() < 1.0, "p0 {p0:.1}");
        assert!(auto < p0);
    }

    #[test]
    fn fig5b_matrix_shape() {
        let m = DramLatencyModel::zen2();
        // (pstate, dram, paper ns, tolerance %)
        let cases = [
            (IodPstate::P3, DramFreq::Mhz1467, 142.0, 0.05),
            (IodPstate::P2, DramFreq::Mhz1467, 101.0, 0.05),
            (IodPstate::P1, DramFreq::Mhz1467, 113.0, 0.08),
            (IodPstate::P0, DramFreq::Mhz1467, 96.0, 0.02),
            (IodPstate::Auto, DramFreq::Mhz1467, 92.0, 0.02),
            (IodPstate::P3, DramFreq::Mhz1600, 137.0, 0.05),
            (IodPstate::P2, DramFreq::Mhz1600, 104.0, 0.04),
            (IodPstate::P1, DramFreq::Mhz1600, 110.0, 0.04),
            (IodPstate::P0, DramFreq::Mhz1600, 109.0, 0.02),
            (IodPstate::Auto, DramFreq::Mhz1600, 104.0, 0.02),
        ];
        for (p, d, expect, tol) in cases {
            let got = m.latency_for(p, d);
            let err = (got - expect).abs() / expect;
            assert!(err < tol, "P{p}/{d}: {got:.1} ns vs paper {expect} ns (err {err:.3})");
        }
    }

    #[test]
    fn higher_dram_clock_does_not_improve_latency_on_auto() {
        // "for the higher memory frequency, also the I/O die P-state 2
        // performs better than P-state 0" and auto@3200 is worse than
        // auto@2933 — asynchronous crossings eat the raw speed.
        let m = DramLatencyModel::zen2();
        assert!(
            m.latency_for(IodPstate::Auto, DramFreq::Mhz1600)
                > m.latency_for(IodPstate::Auto, DramFreq::Mhz1467)
        );
        assert!(
            m.latency_for(IodPstate::P2, DramFreq::Mhz1600)
                < m.latency_for(IodPstate::P0, DramFreq::Mhz1600)
        );
    }

    #[test]
    fn p2_beats_p1_in_both_columns() {
        // The non-monotonicity the paper measured (and that motivates the
        // inferred FCLK table).
        let m = DramLatencyModel::zen2();
        for d in DramFreq::SWEEP {
            assert!(m.latency_for(IodPstate::P2, d) < m.latency_for(IodPstate::P1, d));
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn l3_rejects_zero_frequency() {
        let _ = L3LatencyModel::default().latency_ns(0.0, 1.0);
    }
}
