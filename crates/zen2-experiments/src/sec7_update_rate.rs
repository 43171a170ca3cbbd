//! §VII — RAPL counter update rate.
//!
//! "We measured an update rate of 1 ms for RAPL by polling the MSRs via
//! the msr kernel module." The benchmark polls the package energy MSR far
//! faster than the update rate and records the spacing of distinct values.

use crate::report::Table;
use zen2_isa::{KernelClass, OperandWeight};
use zen2_msr::address;
use zen2_sim::time::MICROSECOND;
use zen2_sim::{SimConfig, System};
use zen2_topology::ThreadId;

/// Full experiment output.
#[derive(Debug, Clone)]
pub struct Sec7Result {
    /// Observed intervals between counter changes, µs.
    pub intervals_us: Vec<f64>,
    /// Mean interval, µs.
    pub mean_us: f64,
}

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// Poll period in µs.
    pub poll_period_us: u64,
    /// Total polling duration in ms.
    pub duration_ms: u64,
}

impl Default for Config {
    fn default() -> Self {
        Self { poll_period_us: 50, duration_ms: 50 }
    }
}

/// Polls the package-energy MSR and measures update spacing.
pub fn run(cfg: &Config, seed: u64) -> Sec7Result {
    let mut sys = System::new(SimConfig::epyc_7502_2s(), seed);
    // Keep the package busy so energy accrues every update.
    for t in 0..16u32 {
        sys.set_workload(ThreadId(t), KernelClass::BusyWait, OperandWeight::HALF);
    }
    sys.run_for_secs(0.01);

    let mut intervals = Vec::new();
    let mut last_value = None;
    let mut last_change_ns = None;
    let steps = cfg.duration_ms * 1000 / cfg.poll_period_us;
    for _ in 0..steps {
        sys.run_for_ns(cfg.poll_period_us * MICROSECOND);
        sys.sync_rapl_msrs();
        let v = sys.msrs().read(ThreadId(0), address::PKG_ENERGY_STAT).expect("rdmsr works");
        if last_value != Some(v) {
            if let (Some(_), Some(t)) = (last_value, last_change_ns) {
                intervals.push((sys.now_ns() - t) as f64 / 1000.0);
            }
            last_value = Some(v);
            last_change_ns = Some(sys.now_ns());
        }
    }
    let mean_us = zen2_sim::methodology::mean(&intervals);
    Sec7Result { intervals_us: intervals, mean_us }
}

/// Renders the summary.
pub fn render(r: &Sec7Result) -> String {
    tables(r).iter().map(Table::render).collect()
}

/// The summary as a [`Table`] (for text or JSON output).
pub fn tables(r: &Sec7Result) -> Vec<Table> {
    let mut t = Table::new(
        "SS VII — RAPL update interval (paper: 1 ms)",
        &["observed updates", "mean interval [us]"],
    );
    t.row(&[format!("{}", r.intervals_us.len()), format!("{:.0}", r.mean_us)]);
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_interval_is_one_millisecond() {
        let r = run(&Config::default(), 121);
        assert!(r.intervals_us.len() >= 20, "updates observed: {}", r.intervals_us.len());
        assert!((r.mean_us - 1000.0).abs() < 60.0, "mean {} us", r.mean_us);
        for &i in &r.intervals_us {
            assert!((i - 1000.0).abs() < 120.0, "interval {i} us");
        }
    }

    #[test]
    fn faster_polling_does_not_reveal_faster_updates() {
        let r = run(&Config { poll_period_us: 10, duration_ms: 20 }, 122);
        assert!((r.mean_us - 1000.0).abs() < 60.0, "mean {} us", r.mean_us);
    }
}
