//! Property-based tests of the power models' physical sanity.

use crate::core::CorePowerModel;
use crate::psu::PsuModel;
use crate::thermal::{LeakageModel, ThermalModel};
use crate::voltage::VfCurve;
use proptest::prelude::*;
use zen2_isa::{KernelClass, OperandWeight, SmtMode, WorkloadSet};

fn arb_kernel() -> impl Strategy<Value = KernelClass> {
    prop::sample::select(vec![
        KernelClass::Pause,
        KernelClass::BusyWait,
        KernelClass::Compute,
        KernelClass::Matmul,
        KernelClass::Sqrt,
        KernelClass::AddPd,
        KernelClass::MulPd,
        KernelClass::MemoryRead,
        KernelClass::Firestarter,
        KernelClass::StreamTriad,
        KernelClass::VXorps,
        KernelClass::Shr,
    ])
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128 })]

    /// Core power is monotone in frequency along the V/f curve for every
    /// kernel, SMT mode and operand weight.
    #[test]
    fn core_power_is_monotone_in_frequency(class in arb_kernel(),
                                           both in any::<bool>(),
                                           weight in 0.0f64..=1.0) {
        let set = WorkloadSet::paper();
        let model = CorePowerModel::zen2();
        let vf = VfCurve::epyc_7502();
        let kernel = set.kernel(class);
        let smt = if both { SmtMode::Both } else { SmtMode::Single };
        let w = OperandWeight(weight);
        let mut prev = 0.0;
        for mhz in (1500..=2500).step_by(100) {
            let f = mhz as f64 / 1000.0;
            let p = model.active_power_w(kernel, smt, f, vf.voltage(f), w);
            prop_assert!(p > prev, "{class:?} at {f} GHz: {p} <= {prev}");
            prev = p;
        }
    }

    /// SMT never reduces core power, and always stays below 2x.
    #[test]
    fn smt_power_ratio_is_bounded(class in arb_kernel(), weight in 0.0f64..=1.0) {
        let set = WorkloadSet::paper();
        let model = CorePowerModel::zen2();
        let kernel = set.kernel(class);
        let w = OperandWeight(weight);
        let single = model.active_power_w(kernel, SmtMode::Single, 2.5, 1.0, w);
        let both = model.active_power_w(kernel, SmtMode::Both, 2.5, 1.0, w);
        prop_assert!(both >= single - 1e-12, "{class:?}: {both} < {single}");
        prop_assert!(both <= 2.0 * single + 1e-12, "{class:?}: {both} > 2x {single}");
    }

    /// Operand weight moves power monotonically, scaled by the kernel's
    /// toggle sensitivity, and never below zero.
    #[test]
    fn toggle_power_is_monotone_in_weight(class in arb_kernel()) {
        let set = WorkloadSet::paper();
        let model = CorePowerModel::zen2();
        let kernel = set.kernel(class);
        let mut prev = 0.0;
        for i in 0..=10 {
            let w = OperandWeight(i as f64 / 10.0);
            let p = model.active_power_w(kernel, SmtMode::Single, 2.5, 1.0, w);
            prop_assert!(p > 0.0);
            prop_assert!(p >= prev - 1e-12, "{class:?} not monotone at w={}", i);
            prev = p;
        }
    }

    /// PSU conversion is monotone and efficiency stays within physical
    /// bounds over the whole operating range.
    #[test]
    fn psu_is_physical(dc in 1.0f64..2_000.0) {
        let psu = PsuModel::server_psu();
        let ac = psu.ac_from_dc(dc);
        prop_assert!(ac > dc, "conversion cannot create energy");
        let eff = psu.efficiency(dc);
        prop_assert!(eff > 0.0 && eff < 1.0);
        prop_assert!(psu.ac_from_dc(dc + 1.0) > ac);
    }

    /// Thermal stepping converges toward steady state from any start and
    /// never overshoots it.
    #[test]
    fn thermal_step_never_overshoots(start in -20.0f64..150.0,
                                     power in 0.0f64..300.0,
                                     dt in 0.001f64..1_000.0) {
        let t = ThermalModel::two_socket_air();
        let target = t.steady_state_c(power);
        let next = t.step_by(start, power, t.alpha(dt));
        if start < target {
            prop_assert!(next >= start && next <= target + 1e-9);
        } else {
            prop_assert!(next <= start && next >= target - 1e-9);
        }
    }

    /// The leakage multiplier stays close to 1 over the realistic die
    /// temperature range and is monotone in temperature.
    #[test]
    fn leakage_multiplier_is_tame(a in 20.0f64..110.0, b in 20.0f64..110.0) {
        let l = LeakageModel::zen2();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(l.multiplier(lo) <= l.multiplier(hi));
        prop_assert!(l.multiplier(hi) < 1.05);
        prop_assert!(l.multiplier(lo) > 0.95);
    }

    /// V/f interpolation stays within the anchor voltage range.
    #[test]
    fn vf_curve_stays_in_range(f in 0.1f64..4.0) {
        let vf = VfCurve::epyc_7502();
        let v = vf.voltage(f);
        prop_assert!((0.85..=1.00).contains(&v));
    }
}
