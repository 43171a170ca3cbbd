//! §VI-B — influence of offlined hardware threads on idle states.
//!
//! "Even though C2 states are active and used by the active hardware
//! threads, system power consumption is increased to the C1 level as long
//! as the disabled hardware threads are offline. Only an explicit enabling
//! of the disabled threads will fix this behavior." The paper therefore
//! *strongly discourages* disabling hardware threads on Rome.
//!
//! The offline → re-online sequence is a single declarative [`Scenario`]
//! with three observation windows; the clean-parking ablation is a second
//! case in the same [`Session`] batch.

use crate::report::{compare, Table};
use zen2_sim::{Case, Probe, Scenario, Session, SimConfig, Window};
use zen2_topology::{CpuNumbering, LogicalCpu, ThreadId};

/// Full experiment output.
#[derive(Debug, Clone)]
pub struct Sec6bResult {
    /// Idle power with every thread online and in C2, W.
    pub baseline_w: f64,
    /// Idle power after offlining the second hardware threads, W.
    pub offline_w: f64,
    /// Idle power after re-onlining them, W.
    pub reonline_w: f64,
    /// The same offline configuration under a kernel that parks offlined
    /// threads in the deepest state (ablation), W.
    pub clean_parking_w: f64,
}

/// Settling time before each measurement window, seconds.
const SETTLE_S: f64 = 0.05;
/// Measurement window length, seconds.
const MEASURE_S: f64 = 0.4;

/// The second hardware threads in logical-CPU order (cpus 64..128).
fn second_threads(numbering: &CpuNumbering) -> Vec<ThreadId> {
    (64..128).map(|cpu| numbering.thread_of(LogicalCpu(cpu))).collect()
}

/// Builds the offline → re-online sequence as one scenario: three
/// settle-then-measure phases around the two hotplug transitions.
fn sequence_scenario(threads: &[ThreadId]) -> Scenario {
    let phase = MEASURE_S + SETTLE_S;
    let mut sc = Scenario::new();
    sc.probe("baseline", Probe::AcTrueMeanW, Window::span_secs(SETTLE_S, phase));

    let mut at = sc.at_secs(phase);
    for &t in threads {
        at = at.online(t, false);
    }
    sc.probe("offline", Probe::AcTrueMeanW, Window::span_secs(phase + SETTLE_S, 2.0 * phase));

    let mut at = sc.at_secs(2.0 * phase);
    for &t in threads {
        at = at.online(t, true);
    }
    sc.probe(
        "reonline",
        Probe::AcTrueMeanW,
        Window::span_secs(2.0 * phase + SETTLE_S, 3.0 * phase),
    );
    sc
}

/// Builds the clean-parking ablation scenario: offline at t = 0, measure.
fn clean_scenario(threads: &[ThreadId]) -> Scenario {
    let mut sc = Scenario::new();
    let mut at = sc.at(0);
    for &t in threads {
        at = at.online(t, false);
    }
    sc.probe("clean", Probe::AcTrueMeanW, Window::span_secs(SETTLE_S, SETTLE_S + MEASURE_S));
    sc
}

/// Runs the offline/re-online sequence plus the clean-parking ablation
/// through `session`.
pub fn run(seed: u64, session: &Session) -> Sec6bResult {
    let cfg = SimConfig::epyc_7502_2s();
    let mut clean_cfg = SimConfig::epyc_7502_2s();
    clean_cfg.os.offline_parks_in_c1 = false;
    let threads = second_threads(&CpuNumbering::linux_default(&cfg.topology));

    let cases = vec![
        Case::new("sequence", cfg, sequence_scenario(&threads), seed),
        Case::new("clean-parking", clean_cfg, clean_scenario(&threads), seed ^ 1),
    ];
    let runs = session.run(&cases).expect("sec6b scenarios validate");

    Sec6bResult {
        baseline_w: runs[0].watts("baseline"),
        offline_w: runs[0].watts("offline"),
        reonline_w: runs[0].watts("reonline"),
        clean_parking_w: runs[1].watts("clean"),
    }
}

/// Renders the summary.
pub fn render(r: &Sec6bResult) -> String {
    tables(r).iter().map(Table::render).collect()
}

/// The summary as a [`Table`] (for text or JSON output).
pub fn tables(r: &Sec6bResult) -> Vec<Table> {
    let mut t = Table::new(
        "SS VI-B — offlined hardware threads block package C6",
        &["configuration", "paper / measured [W]"],
    );
    t.row(&["all online, idle (C2)".into(), compare(99.1, r.baseline_w, "")]);
    t.row(&["second threads offline".into(), compare(180.3, r.offline_w, "")]);
    t.row(&["after re-onlining".into(), compare(99.1, r.reonline_w, "")]);
    t.row(&["(ablation) clean offline parking".into(), format!("- / {:.1}", r.clean_parking_w)]);
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offline_threads_raise_idle_power_to_c1_level() {
        let r = run(111, &Session::new());
        assert!((r.baseline_w - 99.1).abs() < 1.5, "baseline {}", r.baseline_w);
        // "System power consumption is increased to the C1 level": the
        // package wake step plus the per-core clock-gate residual of all
        // 64 cores held out of C2 (~180.3 + 63 x 0.09 W).
        assert!((175.0..=190.0).contains(&r.offline_w), "offline {}", r.offline_w);
        assert!(r.offline_w > r.baseline_w + 75.0);
    }

    #[test]
    fn reonlining_fixes_it() {
        let r = run(112, &Session::new());
        assert!((r.reonline_w - r.baseline_w).abs() < 1.0, "re-online {}", r.reonline_w);
    }

    #[test]
    fn clean_parking_kernel_would_not_show_the_anomaly() {
        let r = run(113, &Session::new());
        assert!((r.clean_parking_w - r.baseline_w).abs() < 1.5, "clean {}", r.clean_parking_w);
    }
}
