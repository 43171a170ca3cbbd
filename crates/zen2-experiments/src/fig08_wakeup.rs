//! Fig. 8 — C-state transition (wakeup) times.
//!
//! Caller/callee pairs as in Ilsche et al.: the callee idles in
//! `pthread_cond_wait`, the caller signals it. Local pairs share a CCX;
//! remote pairs sit on different sockets. 200 samples per combination of
//! C-state, frequency and placement.
//!
//! Each combination is a declarative [`Scenario`] whose sampling plan is
//! a [`Probe::WakeupSamples`] window; the grid fans out via [`Session`].

use crate::report::Table;
use crate::Scale;
use zen2_sim::methodology::{mean, quantile};
use zen2_sim::sweep::child_seed;
use zen2_sim::{Case, Probe, Scenario, Session, SimConfig, Window};
use zen2_topology::ThreadId;

/// Paper reference: C1 ≈ 1 µs at 2.2/2.5 GHz, 1.5 µs at 1.5 GHz; C2
/// between 20 µs and 25 µs; remote adds ~1 µs; ACPI reports 1/400 µs.
pub const FREQS_MHZ: [u32; 3] = [1500, 2200, 2500];

/// One measured distribution.
#[derive(Debug, Clone)]
pub struct WakeupDist {
    /// OS C-state (1 or 2).
    pub cstate: u8,
    /// Callee core frequency, MHz.
    pub freq_mhz: u32,
    /// Cross-socket pair.
    pub remote: bool,
    /// Median latency, µs.
    pub median_us: f64,
    /// Mean latency, µs.
    pub mean_us: f64,
    /// 95th percentile, µs.
    pub p95_us: f64,
    /// Maximum (outlier) latency, µs.
    pub max_us: f64,
}

/// Full experiment output.
#[derive(Debug, Clone)]
pub struct Fig8Result {
    /// All distributions, C1 first.
    pub dists: Vec<WakeupDist>,
}

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct Config {
    /// Samples per combination (paper: 200).
    pub samples: usize,
}

impl Config {
    /// Scaled configuration.
    pub fn new(scale: Scale) -> Self {
        Self { samples: scale.pick(100, 200) }
    }
}

/// Time between wakeup samples, ns (the benchmark's inter-sample pause).
const SAMPLE_GAP_NS: u64 = 200_000;

/// Builds one combination's scenario: caller busy on core 0, callee idle
/// on core 1 (local) or socket 1 (remote) at the given frequency and
/// C-state, then `samples` cond-var wakeups every 200 µs.
fn scenario(cfg: &Config, cstate: u8, freq_mhz: u32, remote: bool) -> Scenario {
    let caller = ThreadId(0);
    let callee = if remote { ThreadId(64) } else { ThreadId(2) };
    let sibling = ThreadId(callee.0 + 1);

    let mut sc = Scenario::new();
    let at = sc
        .at(0)
        .workload(caller, zen2_isa::KernelClass::BusyWait, zen2_isa::OperandWeight::HALF)
        // Frequency applies to the callee core (both siblings).
        .pstate(callee, freq_mhz)
        .pstate(sibling, freq_mhz);
    if cstate == 1 {
        at.cstate(callee, 2, false);
    }

    let from = zen2_sim::time::from_secs(0.02);
    sc.probe(
        "wakeups",
        Probe::WakeupSamples { caller, callee, count: cfg.samples, gap: SAMPLE_GAP_NS },
        Window::span(from, from + cfg.samples as u64 * SAMPLE_GAP_NS),
    );
    sc
}

/// Runs all combinations as one [`Session`] batch.
pub fn run(cfg: &Config, seed: u64) -> Fig8Result {
    let mut combos = Vec::new();
    for &cstate in &[1u8, 2u8] {
        for &freq in &FREQS_MHZ {
            for &remote in &[false, true] {
                combos.push((cstate, freq, remote));
            }
        }
    }
    let sim_cfg = SimConfig::epyc_7502_2s();
    let cases: Vec<Case> = combos
        .iter()
        .enumerate()
        .map(|(i, &(cstate, freq, remote))| {
            Case::new(
                format!("C{cstate}/{freq}MHz/{}", if remote { "remote" } else { "local" }),
                sim_cfg.clone(),
                scenario(cfg, cstate, freq, remote),
                child_seed(seed, i as u64),
            )
        })
        .collect();
    let runs = Session::new().run(&cases).expect("fig08 scenarios validate");

    let dists = combos
        .iter()
        .zip(&runs)
        .map(|(&(cstate, freq_mhz, remote), run)| {
            let samples_us: Vec<f64> =
                run.durations_ns("wakeups").iter().map(|ns| ns / 1000.0).collect();
            WakeupDist {
                cstate,
                freq_mhz,
                remote,
                median_us: quantile(&samples_us, 0.5),
                mean_us: mean(&samples_us),
                p95_us: quantile(&samples_us, 0.95),
                max_us: samples_us.iter().copied().fold(0.0, f64::max),
            }
        })
        .collect();
    Fig8Result { dists }
}

/// Renders the paper-style table.
pub fn render(r: &Fig8Result) -> String {
    tables(r).iter().map(Table::render).collect()
}

/// The summary as a [`Table`] (for text or JSON output).
pub fn tables(r: &Fig8Result) -> Vec<Table> {
    let mut t = Table::new(
        "Fig. 8 — C-state wakeup latencies (paper: C1 ~1-1.5 us, C2 20-25 us; ACPI reports 1/400 us)",
        &["C-state", "freq [GHz]", "placement", "median [us]", "mean [us]", "p95 [us]", "max [us]"],
    );
    for d in &r.dists {
        t.row(&[
            format!("C{}", d.cstate),
            format!("{:.1}", d.freq_mhz as f64 / 1000.0),
            if d.remote { "remote".into() } else { "local".into() },
            format!("{:.2}", d.median_us),
            format!("{:.2}", d.mean_us),
            format!("{:.2}", d.p95_us),
            format!("{:.2}", d.max_us),
        ]);
    }
    vec![t]
}

/// Finds a distribution.
pub fn find(r: &Fig8Result, cstate: u8, freq_mhz: u32, remote: bool) -> &WakeupDist {
    r.dists
        .iter()
        .find(|d| d.cstate == cstate && d.freq_mhz == freq_mhz && d.remote == remote)
        .expect("combination present")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Config {
        Config { samples: 60 }
    }

    #[test]
    fn c1_latencies_match_fig8a() {
        let r = run(&quick(), 71);
        assert!((find(&r, 1, 2500, false).median_us - 1.0).abs() < 0.15);
        assert!((find(&r, 1, 2200, false).median_us - 1.14).abs() < 0.2);
        assert!((find(&r, 1, 1500, false).median_us - 1.67).abs() < 0.3);
    }

    #[test]
    fn c2_latencies_match_fig8b() {
        let r = run(&quick(), 72);
        for &f in &FREQS_MHZ {
            let d = find(&r, 2, f, false);
            assert!((19.0..27.0).contains(&d.median_us), "C2 @{f}: {}", d.median_us);
        }
        // Far below the ACPI-reported 400 us.
        assert!(find(&r, 2, 2500, false).p95_us < 40.0);
    }

    #[test]
    fn remote_adds_about_one_microsecond() {
        let r = run(&quick(), 73);
        for &c in &[1u8, 2u8] {
            let local = find(&r, c, 2500, false).median_us;
            let remote = find(&r, c, 2500, true).median_us;
            assert!((remote - local - 1.0).abs() < 0.3, "C{c}: {local} vs {remote}");
        }
    }

    #[test]
    fn outliers_exist_but_are_rare() {
        let r = run(&Config { samples: 300 }, 74);
        let d = find(&r, 2, 2500, false);
        assert!(d.max_us > d.median_us, "some samples are perturbed");
        assert!(d.p95_us < d.median_us * 1.3, "but the bulk is tight");
    }
}
