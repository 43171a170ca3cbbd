//! The SMU's telemetry throttle loop (Section V-E).
//!
//! Zen 2 replaced Intel's static AVX-frequency tables with "an intelligent
//! EDC manager which monitors activity ... and throttles execution only
//! when necessary". In this reproduction the loop regulates the SMU's own
//! *estimated* package power (the same model that feeds the RAPL counters)
//! against its PPT target: each update slot it lowers the package-wide
//! frequency cap by one 25 MHz step while the estimate exceeds the target,
//! and raises the cap when there is headroom beyond a deadband. Because
//! the estimate — not the wall truth — is regulated, the counters read a
//! flat 170 W under FIRESTARTER while the external meter shows 489/509 W
//! (Fig. 6).
//!
//! A step reads the estimate only through two comparisons, against PPT
//! and against PPT − deadband. A machine that keeps no RAPL accounting
//! knows the estimate only as an interval between evaluations; when
//! neither threshold lies inside it, any point of the interval gives the
//! same step (`decides_alike`). The same test over the interval of every
//! estimate a package can reach before its next full evaluation, with
//! `holds` at one point of it, proves that every slot until then holds,
//! so the simulator asks it once per machine state instead of once per
//! slot.

use crate::config::ControllerParams;

/// Per-package frequency-cap controller state.
#[derive(Debug, Clone)]
pub struct PptController {
    params_enabled: bool,
    step_mhz: u32,
    deadband_w: f64,
    /// Current cap in MHz.
    cap_mhz: u32,
    /// Ceiling the cap may return to (nominal, or boost maximum).
    max_mhz: u32,
    /// Floor (lowest P-state; the controller never stalls cores).
    min_mhz: u32,
}

impl PptController {
    /// Creates a controller capped at `max_mhz` (nominal or boost).
    pub fn new(params: &ControllerParams, max_mhz: u32, min_mhz: u32) -> Self {
        assert!(min_mhz <= max_mhz, "cap range inverted");
        let ceiling = params.boost_max_mhz.map_or(max_mhz, |b| b.max(max_mhz));
        Self {
            params_enabled: params.enabled,
            step_mhz: params.step_mhz,
            deadband_w: params.deadband_w,
            cap_mhz: ceiling,
            max_mhz: ceiling,
            min_mhz,
        }
    }

    /// The current package-wide frequency cap in MHz.
    pub fn cap_mhz(&self) -> u32 {
        self.cap_mhz
    }

    /// One control step, called at each SMU slot with the package's
    /// estimated power and the lowest frequency currently *applied* on the
    /// package. Stepping relative to the applied frequency (not the
    /// previous cap) is the loop's anti-windup: DVFS transitions lag the
    /// telemetry by up to 1.4 ms, and without it the cap would wind far
    /// past the equilibrium and oscillate. Returns `true` if the cap
    /// changed.
    pub fn step(&mut self, estimated_w: f64, ppt_target_w: f64, applied_mhz: u32) -> bool {
        if self.holds(estimated_w, ppt_target_w) {
            return false;
        }
        let before = self.cap_mhz;
        let (above, _) = self.sides(estimated_w, ppt_target_w);
        if above && self.cap_mhz > self.min_mhz {
            // One step below what is actually applied.
            self.cap_mhz =
                self.cap_mhz.min(applied_mhz).saturating_sub(self.step_mhz).max(self.min_mhz);
        } else {
            // One step above what is actually applied.
            self.cap_mhz = (applied_mhz + self.step_mhz).min(self.max_mhz).max(self.min_mhz);
        }
        self.cap_mhz != before
    }

    /// Whether a [`step`](Self::step) at this estimate leaves the cap
    /// where it is, whatever frequency is applied: the cap is at its
    /// ceiling and the estimate at or below PPT, the estimate is inside
    /// the deadband `[PPT − deadband, PPT]`, or the cap is at its floor
    /// and the estimate above PPT. A caller that knows the step holds
    /// need not look up the applied frequency.
    pub(crate) fn holds(&self, estimated_w: f64, ppt_target_w: f64) -> bool {
        let (above, below) = self.sides(estimated_w, ppt_target_w);
        let lowers = above && self.cap_mhz > self.min_mhz;
        let raises = below && self.cap_mhz < self.max_mhz;
        !self.params_enabled || !(lowers || raises)
    }

    /// Whether every estimate in `[lo_w, hi_w]` gives the same
    /// [`holds`](Self::holds) and [`step`](Self::step) as any other: no
    /// threshold lies inside the interval. Both comparisons of
    /// [`sides`](Self::sides) are monotone in the estimate, so agreeing at
    /// the two ends means agreeing throughout.
    pub(crate) fn decides_alike(&self, lo_w: f64, hi_w: f64, ppt_target_w: f64) -> bool {
        self.sides(lo_w, ppt_target_w) == self.sides(hi_w, ppt_target_w)
    }

    /// The only two comparisons a step makes with the estimate: above
    /// PPT, and below PPT − deadband.
    fn sides(&self, estimated_w: f64, ppt_target_w: f64) -> (bool, bool) {
        (estimated_w > ppt_target_w, estimated_w < ppt_target_w - self.deadband_w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller() -> PptController {
        PptController::new(&ControllerParams::default(), 2500, 1500)
    }

    /// A toy estimate: proportional to frequency, calibrated so the
    /// equilibrium sits strictly between two 25 MHz steps.
    fn estimate(cap_mhz: u32, w_per_mhz: f64) -> f64 {
        cap_mhz as f64 * w_per_mhz
    }

    #[test]
    fn converges_to_equilibrium_and_holds() {
        let mut c = controller();
        // 0.0833 W/MHz: 170 W at ~2041 MHz. Applied tracks the cap with no
        // lag in this unit test.
        let mut changes = 0;
        for _ in 0..1000 {
            if c.step(estimate(c.cap_mhz(), 0.0833), 170.0, c.cap_mhz()) {
                changes += 1;
            }
        }
        let eq = c.cap_mhz();
        assert!((2025..=2050).contains(&eq), "equilibrium {eq} MHz");
        // After convergence the cap must be stable (deadband).
        let before = c.cap_mhz();
        for _ in 0..100 {
            c.step(estimate(c.cap_mhz(), 0.0833), 170.0, c.cap_mhz());
        }
        assert_eq!(c.cap_mhz(), before, "controller must not dither");
        assert!(changes < 30, "convergence should take ~19 steps, took {changes}");
    }

    #[test]
    fn converges_despite_transition_lag() {
        // The applied frequency follows the cap only every third step
        // (modeling the ~1.4 ms ramp): anti-windup must prevent a limit
        // cycle.
        let mut c = controller();
        let mut applied = 2500u32;
        for i in 0..2000 {
            if i % 3 == 0 {
                applied = c.cap_mhz();
            }
            c.step(estimate(applied, 0.0833), 170.0, applied);
        }
        assert!((2000..=2075).contains(&applied), "lagged equilibrium {applied} MHz");
    }

    #[test]
    fn light_load_never_throttles() {
        let mut c = controller();
        for _ in 0..100 {
            c.step(90.0, 170.0, c.cap_mhz());
        }
        assert_eq!(c.cap_mhz(), 2500);
    }

    #[test]
    fn cap_recovers_when_load_drops() {
        let mut c = controller();
        let mut applied;
        for _ in 0..100 {
            applied = c.cap_mhz();
            c.step(estimate(applied, 0.0833), 170.0, applied);
        }
        assert!(c.cap_mhz() < 2100);
        for _ in 0..100 {
            applied = c.cap_mhz();
            c.step(50.0, 170.0, applied);
        }
        assert_eq!(c.cap_mhz(), 2500);
    }

    #[test]
    fn cap_never_leaves_the_pstate_range() {
        let mut c = controller();
        for _ in 0..200 {
            c.step(1_000.0, 170.0, c.cap_mhz());
        }
        assert_eq!(c.cap_mhz(), 1500, "floor at the lowest P-state");
    }

    #[test]
    fn a_holding_step_never_moves_the_cap() {
        for (start, est) in [(2500, 160.0), (2500, 170.0), (2100, 168.5), (1500, 400.0)] {
            let mut c = controller();
            while c.cap_mhz() > start {
                c.step(1_000.0, 170.0, c.cap_mhz());
            }
            assert!(c.holds(est, 170.0), "cap {start} MHz at {est} W");
            for applied in [1500, 2000, 2500] {
                assert!(!c.clone().step(est, 170.0, applied));
            }
        }
        // Outside those three cases the step acts.
        let mut c = controller();
        assert!(!c.holds(171.0, 170.0) && c.step(171.0, 170.0, 2500));
        assert!(!c.holds(150.0, 170.0) && c.step(150.0, 170.0, 2000));
    }

    #[test]
    fn intervals_decide_alike_unless_a_threshold_is_inside() {
        let c = controller();
        // PPT 170 W, deadband below it.
        let low = 170.0 - ControllerParams::default().deadband_w;
        assert!(c.decides_alike(171.0, 172.0, 170.0));
        assert!(c.decides_alike(low + 0.1, 170.0, 170.0), "the deadband includes PPT");
        assert!(c.decides_alike(low - 2.0, low - 1.0, 170.0));
        assert!(!c.decides_alike(169.9, 170.1, 170.0));
        assert!(!c.decides_alike(low - 0.1, low + 0.1, 170.0));
        assert!(!c.decides_alike(low - 1.0, 171.0, 170.0));
    }

    #[test]
    fn disabled_controller_is_inert() {
        let params = ControllerParams { enabled: false, ..ControllerParams::default() };
        let mut c = PptController::new(&params, 2500, 1500);
        assert!(!c.step(1_000.0, 170.0, 2500));
        assert_eq!(c.cap_mhz(), 2500);
    }

    #[test]
    fn boost_raises_the_ceiling() {
        let params = ControllerParams { boost_max_mhz: Some(3350), ..ControllerParams::default() };
        let mut c = PptController::new(&params, 2500, 1500);
        assert_eq!(c.cap_mhz(), 3350);
        // Heavy load still pulls it down into the normal range.
        for _ in 0..200 {
            c.step(estimate(c.cap_mhz(), 0.0833), 170.0, c.cap_mhz());
        }
        assert!((2025..=2050).contains(&c.cap_mhz()));
    }
}
