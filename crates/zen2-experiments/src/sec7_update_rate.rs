//! §VII — RAPL counter update rate.
//!
//! "We measured an update rate of 1 ms for RAPL by polling the MSRs via
//! the msr kernel module." The benchmark polls the package energy MSR far
//! faster than the update rate and records the spacing of distinct values.
//! The polls are instant [`Probe::PkgEnergyMsr`] reads of one scenario,
//! run as one case on the caller's [`Session`].

use crate::report::Table;
use zen2_isa::{KernelClass, OperandWeight};
use zen2_sim::time::{Ns, MICROSECOND, MILLISECOND};
use zen2_sim::{Case, Measurement, Probe, Scenario, Session, SimConfig, Window};
use zen2_topology::{SocketId, ThreadId};

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

/// Busy time before the first poll, so energy accrues every update.
const WARMUP_NS: Ns = 10 * MILLISECOND;

/// Every poll of socket 0's package-energy MSR as `(time, raw counts)`:
/// 16 busy threads from the start, then one read per poll period after
/// the warm-up.
fn polls(cfg: &Config, seed: u64, session: &Session) -> Vec<(Ns, u64)> {
    let mut sc = Scenario::new();
    sc.at(0).workloads(ThreadId(0), 16, KernelClass::BusyWait, OperandWeight::HALF);
    let period = cfg.poll_period_us * MICROSECOND;
    for k in 1..=cfg.duration_ms * 1000 / cfg.poll_period_us {
        let window = Window::at(WARMUP_NS + k * period);
        sc.probe(format!("poll{k}"), Probe::PkgEnergyMsr(SocketId(0)), window);
    }
    let case = Case::new("sec7", SimConfig::epyc_7502_2s(), sc, seed);
    let mut runs =
        session.run(std::slice::from_ref(&case)).expect("the polling scenario validates");
    let run = runs.pop().expect("one case, one run");
    let times = case.scenario.probes().iter().map(|spec| spec.window.from);
    let reads = times.zip(run.measurements).map(|(t, (label, m))| match m {
        Measurement::Raw(counts) => (t, counts),
        other => panic!("{label}: {other:?} is not a raw MSR read"),
    });
    reads.collect()
}

/// Polls the package-energy MSR and measures update spacing.
pub fn run(cfg: &Config, seed: u64, session: &Session) -> Sec7Result {
    let mut intervals = Vec::new();
    let mut last: Option<(u64, Ns)> = None;
    for (t, value) in polls(cfg, seed, session) {
        if last.is_some_and(|(seen, _)| seen == value) {
            continue;
        }
        if let Some((_, changed)) = last {
            intervals.push((t - changed) as f64 / 1000.0);
        }
        last = Some((value, t));
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
    use zen2_msr::address;
    use zen2_sim::System;

    #[test]
    fn update_interval_is_one_millisecond() {
        let r = run(&Config::default(), 121, &Session::new());
        assert!(r.intervals_us.len() >= 20, "updates observed: {}", r.intervals_us.len());
        assert!((r.mean_us - 1000.0).abs() < 60.0, "mean {} us", r.mean_us);
        for &i in &r.intervals_us {
            assert!((i - 1000.0).abs() < 120.0, "interval {i} us");
        }
    }

    #[test]
    fn faster_polling_does_not_reveal_faster_updates() {
        let r = run(&Config { poll_period_us: 10, duration_ms: 20 }, 122, &Session::new());
        assert!((r.mean_us - 1000.0).abs() < 60.0, "mean {} us", r.mean_us);
    }

    #[test]
    fn probe_reads_match_a_hand_driven_poll_loop() {
        // The probe reads exactly what software polling one machine by
        // hand reads, at the bin's seed and at `all`'s.
        let cfg = Config::default();
        for seed in [0x5EC7, 13] {
            let probed = polls(&cfg, seed, &Session::new());
            assert_eq!(probed.len(), 1000);
            let mut sys = System::new(SimConfig::epyc_7502_2s(), seed);
            for t in 0..16u32 {
                sys.set_workload(ThreadId(t), KernelClass::BusyWait, OperandWeight::HALF);
            }
            sys.run_for_ns(WARMUP_NS);
            for &(t, counts) in &probed {
                sys.run_for_ns(cfg.poll_period_us * MICROSECOND);
                sys.sync_rapl_msrs();
                assert_eq!(sys.now_ns(), t);
                let by_hand = sys.msrs().read(ThreadId(0), address::PKG_ENERGY_STAT).unwrap();
                assert_eq!(counts, by_hand, "seed {seed:#x}, poll at {t} ns");
            }
        }
    }
}
