//! I/O-die P-states and clock-domain planning.

use std::fmt;

/// DRAM clock options on the paper's system (DDR4-2933 and DDR4-3200).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DramFreq {
    /// DDR4-2933: MEMCLK 1467 MHz — the platform default ("memory is
    /// clocked at 1.6 GHz" refers to the faster BIOS option).
    Mhz1467,
    /// DDR4-3200: MEMCLK 1600 MHz.
    Mhz1600,
}

impl DramFreq {
    /// MEMCLK in MHz.
    pub fn memclk_mhz(self) -> u32 {
        match self {
            DramFreq::Mhz1467 => 1467,
            DramFreq::Mhz1600 => 1600,
        }
    }

    /// Both options, in the paper's sweep order.
    pub const SWEEP: [DramFreq; 2] = [DramFreq::Mhz1467, DramFreq::Mhz1600];

    /// Peak DDR4 transfer rate per channel in GB/s (two transfers per
    /// MEMCLK cycle, 8 bytes per transfer).
    pub fn channel_peak_gbs(self) -> f64 {
        2.0 * self.memclk_mhz() as f64 * 1e6 * 8.0 / 1e9
    }
}

impl fmt::Display for DramFreq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DramFreq::Mhz1467 => write!(f, "1.467 GHz"),
            DramFreq::Mhz1600 => write!(f, "1.6 GHz"),
        }
    }
}

/// BIOS I/O-die P-state selection.
///
/// The FCLK value behind each numbered P-state is *not publicly
/// documented* ("the underlying mechanism is not disclosed", Section
/// III-C); the table below is inferred from the paper's Fig. 5
/// measurements, which show a non-monotone mapping: P2 outperforms P1 in
/// both bandwidth and latency, and P0 matches the `auto` setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IodPstate {
    /// Reference fabric clock (1467 MHz, synchronous with DDR4-2933).
    P0,
    /// Power-save fabric clock (1200 MHz).
    P1,
    /// Intermediate fabric clock (1333 MHz).
    P2,
    /// Deep power-save fabric clock (800 MHz).
    P3,
    /// Hardware control loop: couples FCLK to MEMCLK where possible.
    Auto,
}

impl IodPstate {
    /// The paper's sweep order (Fig. 5 rows, top to bottom).
    pub const SWEEP: [IodPstate; 5] =
        [IodPstate::P3, IodPstate::P2, IodPstate::P1, IodPstate::P0, IodPstate::Auto];

    /// Maximum fabric clock the I/O die supports.
    pub const MAX_FCLK_MHZ: u32 = 1467;

    /// The fabric clock this P-state runs for a given DRAM clock.
    pub fn fclk_mhz(self, dram: DramFreq) -> u32 {
        match self {
            IodPstate::P0 => 1467,
            IodPstate::P1 => 1200,
            IodPstate::P2 => 1333,
            IodPstate::P3 => 800,
            // The control loop tracks MEMCLK but cannot exceed the fabric
            // maximum: with DDR4-3200 it runs 1467 MHz asynchronously.
            IodPstate::Auto => dram.memclk_mhz().min(Self::MAX_FCLK_MHZ),
        }
    }

    /// Whether this is the hardware-controlled setting.
    pub fn is_auto(self) -> bool {
        matches!(self, IodPstate::Auto)
    }

    /// I/O-die power at this P-state relative to P0 (used by the power
    /// model; "using higher I/O die P-states reduces power consumption").
    pub fn relative_power(self, dram: DramFreq) -> f64 {
        let fclk = self.fclk_mhz(dram) as f64;
        // Fabric power is dominated by switching: roughly linear in FCLK
        // with a constant floor for PHYs and misc logic.
        0.35 + 0.65 * fclk / 1467.0
    }
}

impl fmt::Display for IodPstate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IodPstate::P0 => write!(f, "0"),
            IodPstate::P1 => write!(f, "1"),
            IodPstate::P2 => write!(f, "2"),
            IodPstate::P3 => write!(f, "3"),
            IodPstate::Auto => write!(f, "auto"),
        }
    }
}

/// Quality of the MEMCLK/UCLK clock-domain crossing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrossingQuality {
    /// Same clock, coupled by the auto controller: no crossing cost.
    Synchronous,
    /// The two clocks form a small integer ratio (within 1 %): the
    /// crossing scheduler runs a fixed pattern with minimal margin.
    Aligned,
    /// Unrelated (plesiochronous) clocks: every transfer pays
    /// synchronizer margin.
    Misaligned,
}

/// Small integer ratios the crossing hardware can schedule statically.
/// Numerators/denominators up to 11 with the denominators the fabric
/// actually produces.
const ALIGNED_RATIOS: [(u32, u32); 8] =
    [(6, 5), (5, 4), (4, 3), (11, 8), (3, 2), (11, 6), (2, 1), (11, 10)];

/// Relative tolerance for calling a ratio "aligned". Tight enough that
/// 12:11 (DDR4-3200 against the 1467 MHz fabric maximum) does *not* pass
/// as 11:10 — that crossing is the expensive one in the paper's data.
const ALIGN_TOLERANCE: f64 = 0.005;

/// Classifies the crossing between two clocks (order-insensitive).
pub fn classify_crossing(a_mhz: u32, b_mhz: u32) -> CrossingQuality {
    assert!(a_mhz > 0 && b_mhz > 0, "clock domains must run at a positive frequency");
    let (hi, lo) = if a_mhz >= b_mhz { (a_mhz, b_mhz) } else { (b_mhz, a_mhz) };
    let ratio = hi as f64 / lo as f64;
    if (ratio - 1.0).abs() <= ALIGN_TOLERANCE {
        return CrossingQuality::Synchronous;
    }
    for (p, q) in ALIGNED_RATIOS {
        let target = p as f64 / q as f64;
        if (ratio / target - 1.0).abs() <= ALIGN_TOLERANCE {
            return CrossingQuality::Aligned;
        }
    }
    CrossingQuality::Misaligned
}

/// The resolved clock plan for one (I/O-die P-state, DRAM clock) setting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockPlan {
    /// The BIOS selection that produced this plan.
    pub pstate: IodPstate,
    /// The DRAM clock.
    pub dram: DramFreq,
    /// Fabric clock in MHz.
    pub fclk_mhz: u32,
    /// Memory-controller clock in MHz (the slower of FCLK and MEMCLK).
    pub uclk_mhz: u32,
    /// Quality of the UCLK/MEMCLK boundary.
    pub crossing: CrossingQuality,
    /// Whether the plan came from a pinned (non-auto) P-state. Pinned
    /// plans bypass the coupled fast path even at matched clocks, which is
    /// why `auto` beats pinned P0 by ~4 ns in the paper.
    pub pinned: bool,
}

impl ClockPlan {
    /// Resolves the clock plan for a configuration.
    pub fn resolve(pstate: IodPstate, dram: DramFreq) -> Self {
        let fclk = pstate.fclk_mhz(dram);
        let memclk = dram.memclk_mhz();
        let uclk = fclk.min(memclk);
        let crossing = classify_crossing(uclk, memclk);
        Self { pstate, dram, fclk_mhz: fclk, uclk_mhz: uclk, crossing, pinned: !pstate.is_auto() }
    }

    /// FCLK in GHz.
    pub fn fclk_ghz(&self) -> f64 {
        self.fclk_mhz as f64 / 1000.0
    }

    /// UCLK in GHz.
    pub fn uclk_ghz(&self) -> f64 {
        self.uclk_mhz as f64 / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_couples_to_memclk_up_to_fabric_max() {
        assert_eq!(IodPstate::Auto.fclk_mhz(DramFreq::Mhz1467), 1467);
        assert_eq!(IodPstate::Auto.fclk_mhz(DramFreq::Mhz1600), 1467);
    }

    #[test]
    fn auto_at_2933_is_synchronous() {
        let plan = ClockPlan::resolve(IodPstate::Auto, DramFreq::Mhz1467);
        assert_eq!(plan.crossing, CrossingQuality::Synchronous);
        assert!(!plan.pinned);
        assert_eq!(plan.uclk_mhz, 1467);
    }

    #[test]
    fn auto_at_3200_is_asynchronous() {
        // FCLK tops out at 1467 so DDR4-3200 always crosses domains — the
        // mechanism behind "a higher DRAM frequency does not increase
        // memory bandwidth significantly".
        let plan = ClockPlan::resolve(IodPstate::Auto, DramFreq::Mhz1600);
        assert_ne!(plan.crossing, CrossingQuality::Synchronous);
        assert_eq!(plan.fclk_mhz, 1467);
    }

    #[test]
    fn pinned_p0_at_matched_clock_still_pays_arbitration() {
        // auto (92.0 ns) beats pinned P0 (96.0 ns) in the paper: the
        // clocks match either way, but the pinned path keeps the generic
        // arbitration stage in the loop.
        let plan = ClockPlan::resolve(IodPstate::P0, DramFreq::Mhz1467);
        assert!(plan.pinned);
        assert_eq!(plan.crossing, CrossingQuality::Synchronous);
    }

    #[test]
    fn crossing_classification() {
        assert_eq!(classify_crossing(1467, 1467), CrossingQuality::Synchronous);
        // 1600:1333 = 6:5 within tolerance.
        assert_eq!(classify_crossing(1600, 1333), CrossingQuality::Aligned);
        // 1600:1200 = 4:3.
        assert_eq!(classify_crossing(1600, 1200), CrossingQuality::Aligned);
        // 1600:800 = 2:1.
        assert_eq!(classify_crossing(1600, 800), CrossingQuality::Aligned);
        // 1467:1333 = 11:10.
        assert_eq!(classify_crossing(1467, 1333), CrossingQuality::Aligned);
        // 1467:800 = 11:6.
        assert_eq!(classify_crossing(1467, 800), CrossingQuality::Aligned);
        // 1600:1467 = 12:11 — not in the scheduler's table.
        assert_eq!(classify_crossing(1600, 1467), CrossingQuality::Misaligned);
        // 1467:1200 = 11:9 — not schedulable.
        assert_eq!(classify_crossing(1467, 1200), CrossingQuality::Misaligned);
    }

    #[test]
    fn uclk_is_the_slower_domain() {
        let plan = ClockPlan::resolve(IodPstate::P3, DramFreq::Mhz1600);
        assert_eq!(plan.uclk_mhz, 800);
        let plan = ClockPlan::resolve(IodPstate::P0, DramFreq::Mhz1467);
        assert_eq!(plan.uclk_mhz, 1467);
    }

    #[test]
    fn relative_power_decreases_with_deeper_pstates() {
        let d = DramFreq::Mhz1467;
        let p0 = IodPstate::P0.relative_power(d);
        let p3 = IodPstate::P3.relative_power(d);
        assert!((p0 - 1.0).abs() < 1e-12);
        assert!(p3 < p0);
        assert!(p3 > 0.5, "the I/O die never powers fully down while active");
    }

    #[test]
    fn channel_peak_rates() {
        assert!((DramFreq::Mhz1467.channel_peak_gbs() - 23.472).abs() < 1e-9);
        assert!((DramFreq::Mhz1600.channel_peak_gbs() - 25.6).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive frequency")]
    fn zero_clock_is_rejected() {
        let _ = classify_crossing(0, 1467);
    }
}
